package storage

import (
	"errors"
	"fmt"
)

// ErrNoSnapshot is returned (wrapped) by Open when the directory holds no
// snapshot file.
var ErrNoSnapshot = errors.New("storage: no snapshot")

// CorruptError is the typed error every structural or checksum failure in
// a snapshot surfaces as: a truncated file, a mangled header or trailer,
// a section whose CRC32C does not match, or a payload that does not
// decode. Corruption is never silent — Open verifies every section
// checksum before returning, and the error names the exact section so the
// operator knows what is damaged.
type CorruptError struct {
	Path    string // offending file
	Section string // e.g. "header", "footer", "codes[rel 0 col 2]"
	Reason  string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("storage: %s: corrupt %s: %s", e.Path, e.Section, e.Reason)
}

func corrupt(path, section, format string, args ...any) *CorruptError {
	return &CorruptError{Path: path, Section: section, Reason: fmt.Sprintf(format, args...)}
}
