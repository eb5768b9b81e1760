// Package paperex builds the paper's running example (Section 5): the
// four-relation denormalized schema, a database extension matching the
// worked cardinalities of Section 6.1 (‖Person[id]‖ = 2200,
// ‖HEmployee[no]‖ = 1550, the 150/125/100 Assignment–Department NEI, ...),
// the application programs whose equi-joins form Q, and the scripted expert
// session the paper narrates. The exact-reproduction experiments E1–E7 all
// run against this fixture.
package paperex

import (
	"fmt"
	"time"

	"dbre/internal/deps"
	"dbre/internal/expert"
	"dbre/internal/relation"
	"dbre/internal/table"
	"dbre/internal/value"
)

// Cardinalities fixed by the paper's worked example.
const (
	NumPersons      = 2200 // ‖Person[id]‖
	NumEmployees    = 1550 // ‖HEmployee[no]‖, all of them persons
	NumDoubleSalary = 100  // employees with a second salary record
	NumDepartments  = 125  // ‖Department[dep]‖
	NumManagers     = 100  // ‖Department[emp]‖ (depts 121-125 unmanaged)
	NumSecondDept   = 20   // managers running a second department
	NumAssignDeps   = 150  // ‖Assignment[dep]‖
	NumSharedDeps   = 100  // ‖Assignment[dep] ⋈ Department[dep]‖
	NumAssignEmps   = 800  // ‖Assignment[emp]‖
	NumDeptProjs    = 80   // ‖Department[proj]‖
	NumAssignProjs  = 200  // ‖Assignment[proj]‖ (⊇ the department ones)
)

// DDL is the Section 5 schema as a legacy dictionary would declare it.
const DDL = `
CREATE TABLE Person (
    id        INTEGER PRIMARY KEY,
    name      VARCHAR(40),
    street    VARCHAR(60),
    number    INTEGER,
    zip-code  VARCHAR(10),
    state     VARCHAR(20)
);
CREATE TABLE HEmployee (
    no        INTEGER,
    date      DATE,
    salary    FLOAT,
    PRIMARY KEY (no, date)
);
CREATE TABLE Department (
    dep       INTEGER PRIMARY KEY,
    emp       INTEGER,
    skill     VARCHAR(30),
    location  VARCHAR(40) NOT NULL,
    proj      INTEGER
);
CREATE TABLE Assignment (
    emp          INTEGER,
    dep          INTEGER,
    proj         INTEGER,
    date         DATE,
    project-name VARCHAR(60),
    PRIMARY KEY (emp, dep, proj)
);
`

// Programs maps file names to application-program sources. Together they
// express exactly the five equi-joins of the paper's set Q, through the
// three host-language shapes the scanner understands.
var Programs = map[string]string{
	// Personnel report: HEmployee[no] ⋈ Person[id].
	"reports/personnel.sql": `
-- yearly personnel report
SELECT p.name, p.state, h.salary
FROM HEmployee h, Person p
WHERE h.no = p.id
ORDER BY p.name;`,

	// Manager screen: Department[emp] ⋈ HEmployee[no].
	"forms/managers.cob": `000100 IDENTIFICATION DIVISION.
000200 PROGRAM-ID. MANAGERS.
000300* DISPLAY THE SALARY OF EACH DEPARTMENT MANAGER
000400 PROCEDURE DIVISION.
000500     EXEC SQL
000600         SELECT d.skill, h.salary INTO :ws-skill, :ws-sal
000700         FROM Department d, HEmployee h
000800         WHERE d.emp = h.no AND d.dep = :ws-dep
000900     END-EXEC.`,

	// Assignment batch: Assignment[emp] ⋈ HEmployee[no].
	"batch/assign.c": `
#include <stdio.h>
/* list assignments of employees on payroll */
int list_assignments(void) {
	char *query =
		"SELECT a.proj, a.date FROM Assignment a "
		"WHERE a.emp IN (SELECT h.no FROM HEmployee h)";
	return run_query(query);
}`,

	// Department reconciliation: Assignment[dep] ⋈ Department[dep].
	"batch/depts.sql": `
SELECT a.emp, d.location
FROM Assignment a, Department d
WHERE a.dep = d.dep;`,

	// Project cross-check: Department[proj] ⋈ Assignment[proj].
	"reports/projects.sql": `
SELECT proj FROM Department
INTERSECT
SELECT proj FROM Assignment;`,
}

// Catalog builds the Section 5 schema directly (equivalent to parsing DDL).
func Catalog() *relation.Catalog {
	attr := func(name string, k value.Kind) relation.Attribute {
		return relation.Attribute{Name: name, Type: k}
	}
	return relation.MustCatalog(
		relation.MustSchema("Person", []relation.Attribute{
			attr("id", value.KindInt), attr("name", value.KindString),
			attr("street", value.KindString), attr("number", value.KindInt),
			attr("zip-code", value.KindString), attr("state", value.KindString),
		}, relation.NewAttrSet("id")),
		relation.MustSchema("HEmployee", []relation.Attribute{
			attr("no", value.KindInt), attr("date", value.KindDate),
			attr("salary", value.KindFloat),
		}, relation.NewAttrSet("no", "date")),
		relation.MustSchema("Department", []relation.Attribute{
			attr("dep", value.KindInt), attr("emp", value.KindInt),
			attr("skill", value.KindString),
			{Name: "location", Type: value.KindString, NotNull: true},
			attr("proj", value.KindInt),
		}, relation.NewAttrSet("dep")),
		relation.MustSchema("Assignment", []relation.Attribute{
			attr("emp", value.KindInt), attr("dep", value.KindInt),
			attr("proj", value.KindInt), attr("date", value.KindDate),
			attr("project-name", value.KindString),
		}, relation.NewAttrSet("emp", "dep", "proj")),
	)
}

// deptSkill and deptProj implement the Department FDs the paper elicits:
// emp → skill and emp → proj hold; proj → skill and proj → emp must not
// (managers emp and emp+80 share a project but differ in skill).
func deptSkill(emp int) string { return fmt.Sprintf("skill-%d", emp%7) }
func deptProj(emp int) int     { return (emp-1)%NumDeptProjs + 1 }

// projectName implements Assignment: proj → project-name.
func projectName(proj int) string { return fmt.Sprintf("project-%d", proj) }

// Database builds the extension with the paper's worked cardinalities. All
// declared constraints hold; the FDs the paper elicits hold; the FDs the
// paper rejects (no → salary, emp → project-name, ...) are violated.
func Database() *table.Database {
	db := table.NewDatabase(Catalog())
	iv := value.NewInt
	sv := value.NewString
	fv := value.NewFloat
	d0 := value.NewDate(1996, time.January, 1)
	d1 := value.NewDate(1996, time.June, 1)

	var persons []table.Row
	for id := 1; id <= NumPersons; id++ {
		persons = append(persons, table.Row{
			iv(int64(id)), sv(fmt.Sprintf("person-%d", id)),
			sv(fmt.Sprintf("street-%d", id%50)), iv(int64(id%200 + 1)),
			sv(fmt.Sprintf("zip-%d", id%100)), sv(fmt.Sprintf("state-%d", id%100%10)),
		})
	}
	mustLoad(db.MustTable("Person"), persons)

	var hemp []table.Row
	for no := 1; no <= NumEmployees; no++ {
		hemp = append(hemp, table.Row{iv(int64(no)), d0, fv(1000 + float64(no%37)*10)})
		if no <= NumDoubleSalary {
			// Second salary record: no → salary must not hold.
			hemp = append(hemp, table.Row{iv(int64(no)), d1, fv(1200 + float64(no%37)*10)})
		}
	}
	mustLoad(db.MustTable("HEmployee"), hemp)

	var dept []table.Row
	for dep := 1; dep <= NumDepartments; dep++ {
		var emp value.Value
		switch {
		case dep <= NumManagers:
			emp = iv(int64(dep))
		case dep <= NumManagers+NumSecondDept:
			// Managers 1..20 run a second department; FD emp → skill,
			// proj forces identical skill and proj here.
			emp = iv(int64(dep - NumManagers))
		default:
			emp = value.Null // departments without a manager
		}
		skill, proj := value.Null, value.Null
		if !emp.IsNull() {
			e := int(emp.Int())
			skill, proj = sv(deptSkill(e)), iv(int64(deptProj(e)))
		}
		dept = append(dept, table.Row{
			iv(int64(dep)), emp, skill,
			sv(fmt.Sprintf("location-%d", dep%30)), proj,
		})
	}
	mustLoad(db.MustTable("Department"), dept)

	var assign []table.Row
	// Assignment departments span 26..175: 150 distinct, 100 shared with
	// Department's 1..125. Employees 1..800; projects 1..200. Each
	// employee gets three assignments with distinct projects so that
	// emp → project-name fails. Dates alternate in 200-row blocks —
	// coprime with neither 150 nor 200 cycles — so proj → date,
	// dep → date and emp → date all fail.
	row := 0
	for emp := 1; emp <= NumAssignEmps; emp++ {
		for k := 0; k < 3; k++ {
			dep := 26 + (row % NumAssignDeps)
			proj := 1 + (row % NumAssignProjs)
			date := d0
			if row%400 >= 200 {
				date = d1
			}
			assign = append(assign, table.Row{
				iv(int64(emp)), iv(int64(dep)), iv(int64(proj)),
				date, sv(projectName(proj)),
			})
			row++
		}
	}
	mustLoad(db.MustTable("Assignment"), assign)
	return db
}

// mustLoad commits rows to tab as one strict batch. The generated rows
// satisfy every declared constraint, so an error is a bug.
func mustLoad(tab *table.Table, rows []table.Row) {
	enc := table.NewChunkEncoder(tab)
	for _, r := range rows {
		if err := enc.AppendRow(r); err != nil {
			panic(err)
		}
	}
	if _, err := tab.NewAppender().AppendBatch(enc, true); err != nil {
		panic(err)
	}
}

// Q returns the paper's Section 5 equi-join set, as the program scanner
// extracts it from Programs.
func Q() *deps.JoinSet {
	side := deps.NewSide
	return deps.NewJoinSet(
		deps.NewEquiJoin(side("HEmployee", "no"), side("Person", "id")),
		deps.NewEquiJoin(side("Department", "emp"), side("HEmployee", "no")),
		deps.NewEquiJoin(side("Assignment", "emp"), side("HEmployee", "no")),
		deps.NewEquiJoin(side("Assignment", "dep"), side("Department", "dep")),
		deps.NewEquiJoin(side("Department", "proj"), side("Assignment", "proj")),
	)
}

// Oracle returns the scripted expert session of the paper:
//
//   - the Assignment–Department NEI is conceptualized as Ass-Dept;
//   - HEmployee.no is conceptualized as the hidden object Employee;
//   - Assignment.dep is (already) the hidden object named Other-Dept;
//   - Assignment.emp and Department.proj are given up;
//   - the FD-split relations are named Manager and Project.
func Oracle() *expert.Scripted {
	s := expert.NewScripted()
	nei := deps.NewEquiJoin(deps.NewSide("Assignment", "dep"), deps.NewSide("Department", "dep"))
	s.NEI[nei.Key()] = expert.NEIDecision{Action: expert.NEINewRelation, Name: "Ass-Dept"}

	s.Hidden[relation.NewRef("HEmployee", "no").Key()] = true
	s.Hidden[relation.NewRef("Assignment", "emp").Key()] = false
	s.Hidden[relation.NewRef("Department", "proj").Key()] = false

	s.Names[relation.NewRef("HEmployee", "no").Key()] = "Employee"
	s.Names[relation.NewRef("Assignment", "dep").Key()] = "Other-Dept"
	s.Names[relation.NewRef("Assignment", "proj").Key()] = "Project"
	s.Names[relation.NewRef("Department", "emp").Key()] = "Manager"
	return s
}

// ExpectedINDs returns the Section 6.1 result: the six inclusion
// dependencies, Ass-Dept included.
func ExpectedINDs() []string {
	return []string{
		"Ass-Dept[dep] << Assignment[dep]",
		"Ass-Dept[dep] << Department[dep]",
		"Assignment[emp] << HEmployee[no]",
		"Department[emp] << HEmployee[no]",
		"Department[proj] << Assignment[proj]",
		"HEmployee[no] << Person[id]",
	}
}

// ExpectedLHS returns the Section 6.2.1 candidate left-hand sides.
func ExpectedLHS() []string {
	return []string{
		"Assignment.emp",
		"Assignment.proj",
		"Department.emp",
		"Department.proj",
		"HEmployee.no",
	}
}

// ExpectedHAfterLHS returns H after LHS-Discovery.
func ExpectedHAfterLHS() []string { return []string{"Assignment.dep"} }

// ExpectedFDs returns the Section 6.2.2 set F.
func ExpectedFDs() []string {
	return []string{
		"Assignment: proj -> project-name",
		"Department: emp -> proj, skill",
	}
}

// ExpectedHFinal returns H after RHS-Discovery.
func ExpectedHFinal() []string { return []string{"Assignment.dep", "HEmployee.no"} }

// ExpectedRIC returns the Section 7 referential integrity constraints (ten
// of them; every IND ends key-based in the example).
func ExpectedRIC() []string {
	return []string{
		"Ass-Dept[dep] << Department[dep]",
		"Ass-Dept[dep] << Other-Dept[dep]",
		"Assignment[dep] << Other-Dept[dep]",
		"Assignment[emp] << Employee[no]",
		"Assignment[proj] << Project[proj]",
		"Department[emp] << Manager[emp]",
		"Employee[no] << Person[id]",
		"HEmployee[no] << Employee[no]",
		"Manager[emp] << Employee[no]",
		"Manager[proj] << Project[proj]",
	}
}

// ExpectedSchemas returns the Section 7 restructured schema rendered in the
// package's text notation ('#' marks primary-key attributes, '*' marks
// other NOT NULL attributes). Section 5 declares the attribute `state`;
// Section 7 of the paper prints `city` in its place — a typo we resolve in
// favor of Section 5.
func ExpectedSchemas() []string {
	return []string{
		"Ass-Dept(#dep)",
		"Assignment(#emp, #dep, #proj, date)",
		"Department(#dep, emp, location*)",
		"Employee(#no)",
		"HEmployee(#no, #date, salary)",
		"Manager(#emp, skill, proj)",
		"Other-Dept(#dep)",
		"Person(#id, name, street, number, zip-code, state)",
		"Project(#proj, project-name)",
	}
}
