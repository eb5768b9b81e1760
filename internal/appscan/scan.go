// Package appscan analyzes application programs — the set P of the paper —
// to recover the data-manipulation statements they embed and, from those,
// the set Q of equi-joins that drives the IND-Discovery algorithm.
//
// Three host shapes are understood, covering the program stock of a 1990s
// relational shop:
//
//   - plain SQL scripts (reports, batch files): parsed wholesale;
//   - COBOL with embedded SQL: EXEC SQL ... END-EXEC blocks;
//   - C with embedded SQL (ESQL/C): EXEC SQL ... ; blocks, plus SQL passed
//     to call-level interfaces as string literals.
package appscan

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"dbre/internal/obs"
	"dbre/internal/sql/ast"
	"dbre/internal/sql/parser"
)

// Snippet is one SQL statement found in a program, with its provenance.
type Snippet struct {
	Stmt ast.Statement
	File string
	Line int // 1-based line of the statement start in the source file
}

// Report aggregates scanning statistics.
type Report struct {
	FilesScanned    int
	StatementsFound int // statements successfully parsed
	CandidatesTried int // candidate texts submitted to the parser
	ParseFailures   int
	FailureSamples  []string // up to a few failing candidates for diagnosis
	BytesScanned    int64
}

func (r *Report) addFailure(candidate string) {
	r.ParseFailures++
	if len(r.FailureSamples) < 5 {
		s := strings.Join(strings.Fields(candidate), " ")
		if len(s) > 80 {
			s = s[:80] + "..."
		}
		r.FailureSamples = append(r.FailureSamples, s)
	}
}

// Language identifies the host language of a program source.
type Language int

// Host languages.
const (
	LangUnknown Language = iota
	LangSQL
	LangCOBOL
	LangC
)

// String names the language.
func (l Language) String() string {
	switch l {
	case LangSQL:
		return "SQL"
	case LangCOBOL:
		return "COBOL"
	case LangC:
		return "C"
	default:
		return "unknown"
	}
}

// DetectLanguage guesses the host language from the file name, falling back
// to content sniffing.
func DetectLanguage(name, content string) Language {
	switch strings.ToLower(filepath.Ext(name)) {
	case ".sql", ".ddl", ".dml":
		return LangSQL
	case ".cob", ".cbl", ".cobol":
		return LangCOBOL
	case ".c", ".h", ".pc", ".ec", ".sc":
		return LangC
	}
	upper := strings.ToUpper(content)
	switch {
	case strings.Contains(upper, "IDENTIFICATION DIVISION"):
		return LangCOBOL
	case strings.Contains(upper, "#INCLUDE") || strings.Contains(content, "int main"):
		return LangC
	case strings.Contains(upper, "SELECT") || strings.Contains(upper, "CREATE TABLE"):
		return LangSQL
	default:
		return LangUnknown
	}
}

// ScanSource extracts the SQL statements embedded in one program source.
func ScanSource(name, content string, rep *Report) []Snippet {
	return ScanSourceCtx(context.Background(), name, content, rep)
}

// ScanSourceCtx is ScanSource with observability threaded through the
// context: when a tracer is installed, each scanned source becomes a
// "scan-file" child span carrying the file name, detected language and
// statement count. Untraced contexts cost nothing.
func ScanSourceCtx(ctx context.Context, name, content string, rep *Report) []Snippet {
	_, sp := obs.StartSpan(ctx, "scan-file")
	sp.SetAttr("file", filepath.Base(name))
	before := 0
	if rep != nil {
		before = rep.StatementsFound
	}
	out := scanSource(name, content, rep, sp)
	if rep != nil {
		sp.SetInt("stmts", int64(rep.StatementsFound-before))
	} else {
		sp.SetInt("stmts", int64(len(out)))
	}
	sp.End()
	return out
}

func scanSource(name, content string, rep *Report, sp *obs.Span) []Snippet {
	if rep == nil {
		rep = &Report{}
	}
	rep.FilesScanned++
	rep.BytesScanned += int64(len(content))
	lang := DetectLanguage(name, content)
	sp.SetAttr("lang", lang.String())
	var candidates []candidate
	switch lang {
	case LangSQL:
		candidates = sqlStatements(content)
	case LangCOBOL:
		candidates = execSQLBlocks(content, true)
	case LangC:
		candidates = append(execSQLBlocks(content, false), cStringLiterals(content)...)
	default:
		// Try everything; duplicates are deduplicated downstream by Q.
		candidates = sqlStatements(content)
		candidates = append(candidates, execSQLBlocks(content, false)...)
		candidates = append(candidates, cStringLiterals(content)...)
	}
	sort.SliceStable(candidates, func(i, j int) bool { return candidates[i].line < candidates[j].line })
	var out []Snippet
	for _, c := range candidates {
		c.text = stripCursorDecl(c.text)
		if !looksLikeSQL(c.text) {
			continue
		}
		rep.CandidatesTried++
		stmt, err := parser.ParseStatement(c.text)
		if err != nil {
			rep.addFailure(c.text)
			continue
		}
		rep.StatementsFound++
		out = append(out, Snippet{Stmt: stmt, File: name, Line: c.line})
	}
	return out
}

// ScanFileCtx reads and scans one program file, with observability
// threaded through the context.
func ScanFileCtx(ctx context.Context, path string, rep *Report) ([]Snippet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ScanSourceCtx(ctx, path, string(data), rep), nil
}

// ScanDirCtx walks dir recursively and scans every regular file with a
// known program extension (and .txt/.src as unknown-language fallbacks).
// Each scanned file becomes a "scan-file" child span of the context's
// current span.
func ScanDirCtx(ctx context.Context, dir string, rep *Report) ([]Snippet, error) {
	var out []Snippet
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.IsDir() {
			return nil
		}
		switch strings.ToLower(filepath.Ext(path)) {
		case ".sql", ".ddl", ".dml", ".cob", ".cbl", ".cobol", ".c", ".h", ".pc", ".ec", ".sc", ".txt", ".src":
		default:
			return nil
		}
		sn, err := ScanFileCtx(ctx, path, rep)
		if err != nil {
			return err
		}
		out = append(out, sn...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].File != out[j].File {
			return out[i].File < out[j].File
		}
		return out[i].Line < out[j].Line
	})
	return out, nil
}

type candidate struct {
	text string
	line int
}

// lineTracker resolves 1-based line numbers for monotonically increasing
// byte offsets in one pass. Extractors visit candidate positions in source
// order; recounting the newlines of the whole prefix per candidate made
// scanning quadratic in the file size (a fuzzing find on literal-heavy C
// sources).
type lineTracker struct {
	content  string
	pos      int
	newlines int
}

func (lt *lineTracker) lineAt(off int) int {
	if off > len(lt.content) {
		off = len(lt.content)
	}
	if off < lt.pos {
		// Non-monotone caller; correctness over speed.
		return 1 + strings.Count(lt.content[:off], "\n")
	}
	lt.newlines += strings.Count(lt.content[lt.pos:off], "\n")
	lt.pos = off
	return 1 + lt.newlines
}

// sqlStatements splits a plain SQL source and locates each statement,
// advancing a single search cursor through the content (the pieces come
// back in source order).
func sqlStatements(content string) []candidate {
	lt := &lineTracker{content: content}
	from := 0
	var out []candidate
	for _, piece := range parser.SplitStatements(content) {
		line := 1
		if idx := strings.Index(content[from:], piece); idx >= 0 {
			idx += from
			line = lt.lineAt(idx)
			from = idx + len(piece)
		}
		out = append(out, candidate{text: piece, line: line})
	}
	return out
}

// stripCursorDecl unwraps `DECLARE <name> CURSOR FOR <select>`, the usual
// embedded-SQL way of issuing a query from COBOL or C.
func stripCursorDecl(s string) string {
	fields := strings.Fields(s)
	if len(fields) < 5 ||
		!strings.EqualFold(fields[0], "DECLARE") ||
		!strings.EqualFold(fields[2], "CURSOR") ||
		!strings.EqualFold(fields[3], "FOR") {
		return s
	}
	// Skip the first four whitespace-delimited fields positionally.
	rest := s
	for i := 0; i < 4; i++ {
		rest = strings.TrimLeft(rest, " \t\r\n")
		if cut := strings.IndexAny(rest, " \t\r\n"); cut >= 0 {
			rest = rest[cut:]
		}
	}
	return strings.TrimSpace(rest)
}

// looksLikeSQL filters candidates cheaply before parsing.
func looksLikeSQL(s string) bool {
	s = strings.TrimSpace(s)
	for _, prefix := range []string{"SELECT", "INSERT", "UPDATE", "DELETE", "CREATE"} {
		if len(s) < len(prefix) || !strings.EqualFold(s[:len(prefix)], prefix) {
			continue
		}
		// Word boundary: "selection" is not a SELECT.
		if len(s) == len(prefix) {
			return true
		}
		if c := s[len(prefix)]; c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '(' || c == '*' {
			return true
		}
	}
	// A leading comment hides the keyword; strip one line comment.
	if strings.HasPrefix(s, "--") {
		if nl := strings.IndexByte(s, '\n'); nl >= 0 {
			return looksLikeSQL(s[nl+1:])
		}
	}
	return false
}

// execSQLBlocks extracts EXEC SQL ... END-EXEC (COBOL) or EXEC SQL ... ;
// (C) blocks. COBOL sources may carry sequence numbers in columns 1-6 and
// an indicator in column 7; lines whose indicator is '*' or '/' are
// comments and are dropped before matching.
func execSQLBlocks(content string, cobol bool) []candidate {
	if cobol {
		content = stripCOBOLColumns(content)
	}
	// ASCII-only uppercasing: strings.ToUpper rewrites invalid UTF-8 to
	// the 3-byte U+FFFD, so its output can be longer than the input and
	// offsets found in it would overrun content (a fuzzing find). The
	// markers searched for are pure ASCII.
	upper := upperASCII(content)
	lt := &lineTracker{content: content}
	var out []candidate
	pos := 0
	for {
		start := strings.Index(upper[pos:], "EXEC SQL")
		if start < 0 {
			return out
		}
		start += pos
		bodyStart := start + len("EXEC SQL")
		var bodyEnd, next int
		if cobol {
			end := strings.Index(upper[bodyStart:], "END-EXEC")
			if end < 0 {
				return out
			}
			bodyEnd = bodyStart + end
			next = bodyEnd + len("END-EXEC")
		} else {
			end := strings.Index(content[bodyStart:], ";")
			if end < 0 {
				return out
			}
			bodyEnd = bodyStart + end
			next = bodyEnd + 1
		}
		body := strings.TrimSpace(content[bodyStart:bodyEnd])
		if body != "" {
			out = append(out, candidate{text: body, line: lt.lineAt(start)})
		}
		pos = next
	}
}

// upperASCII uppercases the ASCII letters of s, leaving every other byte —
// including invalid UTF-8 — untouched, so len(upperASCII(s)) == len(s) and
// byte offsets carry over.
func upperASCII(s string) string {
	var b []byte
	for i := 0; i < len(s); i++ {
		if c := s[i]; 'a' <= c && c <= 'z' {
			if b == nil {
				b = []byte(s)
			}
			b[i] = c - 'a' + 'A'
		}
	}
	if b == nil {
		return s
	}
	return string(b)
}

// stripCOBOLColumns removes the sequence area (cols 1-6), drops comment
// lines (indicator '*' or '/') and clears the indicator column, keeping
// line structure so reported line numbers stay meaningful.
func stripCOBOLColumns(content string) string {
	lines := strings.Split(content, "\n")
	for i, line := range lines {
		if len(line) >= 7 && isSeqArea(line[:6]) {
			switch line[6] {
			case '*', '/':
				lines[i] = ""
				continue
			default:
				lines[i] = "       " + line[7:]
				continue
			}
		}
		// Free-format line: drop comment-only lines.
		trimmed := strings.TrimSpace(line)
		if strings.HasPrefix(trimmed, "*>") {
			lines[i] = ""
		}
	}
	return strings.Join(lines, "\n")
}

// isSeqArea reports whether the first six columns look like a COBOL
// sequence area (digits or blanks).
func isSeqArea(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c != ' ' && (c < '0' || c > '9') {
			return false
		}
	}
	return true
}

// cStringLiterals extracts double-quoted C string literals, concatenating
// adjacent literals (the usual way long SQL is written in C), and returns
// those that look like SQL.
func cStringLiterals(content string) []candidate {
	var out []candidate
	lt := &lineTracker{content: content}
	i := 0
	n := len(content)
	for i < n {
		c := content[i]
		switch {
		case c == '/' && i+1 < n && content[i+1] == '/':
			for i < n && content[i] != '\n' {
				i++
			}
		case c == '/' && i+1 < n && content[i+1] == '*':
			i += 2
			for i+1 < n && !(content[i] == '*' && content[i+1] == '/') {
				i++
			}
			i += 2
		case c == '\'':
			// Char literal; skip to closing quote.
			i++
			for i < n && content[i] != '\'' {
				if content[i] == '\\' {
					i++
				}
				i++
			}
			i++
		case c == '"':
			startLine := lt.lineAt(i)
			text, rest := readCString(content[i:])
			i += rest
			// Adjacent literal concatenation: "SELECT " \n "a FROM t".
			// Built through a Builder: += per fragment was quadratic on
			// literal-heavy sources (a fuzzing find).
			var joined strings.Builder
			joined.WriteString(text)
			for {
				j := i
				for j < n && (content[j] == ' ' || content[j] == '\t' || content[j] == '\n' || content[j] == '\r' || content[j] == '\\') {
					j++
				}
				if j < n && content[j] == '"' {
					more, rest2 := readCString(content[j:])
					joined.WriteString(more)
					i = j + rest2
					continue
				}
				break
			}
			out = append(out, candidate{text: joined.String(), line: startLine})
		default:
			i++
		}
	}
	return out
}

// readCString reads a double-quoted literal starting at s[0] == '"'. It
// returns the unescaped body and the number of input bytes consumed.
func readCString(s string) (string, int) {
	var b strings.Builder
	i := 1
	for i < len(s) {
		c := s[i]
		if c == '"' {
			return b.String(), i + 1
		}
		if c == '\\' && i+1 < len(s) {
			i++
			switch s[i] {
			case 'n':
				b.WriteByte('\n')
			case 't':
				b.WriteByte('\t')
			case 'r':
				b.WriteByte('\r')
			case '"':
				b.WriteByte('"')
			case '\\':
				b.WriteByte('\\')
			default:
				b.WriteByte(s[i])
			}
			i++
			continue
		}
		b.WriteByte(c)
		i++
	}
	return b.String(), i
}

// FormatReport renders the report for logs.
func FormatReport(r *Report) string {
	return fmt.Sprintf("files=%d bytes=%d candidates=%d parsed=%d failures=%d",
		r.FilesScanned, r.BytesScanned, r.CandidatesTried, r.StatementsFound, r.ParseFailures)
}
