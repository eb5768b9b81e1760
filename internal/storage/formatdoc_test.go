// Golden test pinning the worked hexdump in docs/storage-format.md to
// the writer's actual bytes: the doc's example snapshot is regenerated
// here from the exact fixture the doc describes, and the hexdump
// embedded in the doc must match byte for byte. If the format
// changes, this test fails until the spec is updated alongside it.
package storage

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dbre/internal/relation"
	"dbre/internal/table"
	"dbre/internal/value"
)

// docFixture is the tiny relation the spec walks through: pets(id INT
// NOT NULL UNIQUE, name STRING) with rows (1,"ada"), (2,"bob"),
// (3,NULL).
func docFixture() *table.Database {
	pets := relation.MustSchema("pets",
		[]relation.Attribute{
			{Name: "id", Type: value.KindInt, NotNull: true},
			{Name: "name", Type: value.KindString},
		},
		relation.NewAttrSet("id"),
	)
	db := table.NewDatabase(relation.MustCatalog(pets))
	t := db.MustTable("pets")
	t.MustInsert(table.Row{value.NewInt(1), value.NewString("ada")})
	t.MustInsert(table.Row{value.NewInt(2), value.NewString("bob")})
	t.MustInsert(table.Row{value.NewInt(3), value.Null})
	return db
}

// hexDump renders bytes in `hexdump -C` style (offset, 16 hex bytes in
// two groups of 8, printable ASCII), which is the notation the doc uses.
func hexDump(b []byte) string {
	var sb strings.Builder
	for off := 0; off < len(b); off += 16 {
		end := off + 16
		if end > len(b) {
			end = len(b)
		}
		chunk := b[off:end]
		fmt.Fprintf(&sb, "%08x  ", off)
		for i := 0; i < 16; i++ {
			if i == 8 {
				sb.WriteByte(' ')
			}
			if i < len(chunk) {
				fmt.Fprintf(&sb, "%02x ", chunk[i])
			} else {
				sb.WriteString("   ")
			}
		}
		sb.WriteString(" |")
		for _, c := range chunk {
			if c < 32 || c > 126 {
				c = '.'
			}
			sb.WriteByte(c)
		}
		sb.WriteString("|\n")
	}
	return sb.String()
}

// docBlock extracts the fenced code block that follows the given marker
// comment in the doc.
func docBlock(t *testing.T, doc, marker string) string {
	t.Helper()
	i := strings.Index(doc, marker)
	if i < 0 {
		t.Fatalf("docs/storage-format.md: marker %q not found", marker)
	}
	rest := doc[i:]
	open := strings.Index(rest, "```text\n")
	if open < 0 {
		t.Fatalf("docs/storage-format.md: no ```text block after marker %q", marker)
	}
	rest = rest[open+len("```text\n"):]
	close := strings.Index(rest, "```")
	if close < 0 {
		t.Fatalf("docs/storage-format.md: unterminated block after marker %q", marker)
	}
	return rest[:close]
}

func TestStorageFormatDocHexdump(t *testing.T) {
	dir := t.TempDir()
	if err := Snapshot(docFixture(), dir); err != nil {
		t.Fatal(err)
	}
	snap, err := os.ReadFile(filepath.Join(dir, SnapshotFile))
	if err != nil {
		t.Fatal(err)
	}
	snapDump := hexDump(snap)

	docBytes, err := os.ReadFile(filepath.Join("..", "..", "docs", "storage-format.md"))
	if err != nil {
		t.Fatalf("reading spec (generated snapshot below for embedding):\n%s\n%v", snapDump, err)
	}
	doc := string(docBytes)
	if got, want := docBlock(t, doc, "<!-- golden:snapshot-hexdump -->"), snapDump; got != want {
		t.Errorf("docs/storage-format.md snapshot hexdump is stale.\n--- doc ---\n%s--- writer ---\n%s", got, want)
	}
}
