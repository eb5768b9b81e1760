#!/usr/bin/env bash
# Prints the non-test Go lines of each package, counting neither blank
# lines nor comment lines (// lines and /* ... */ blocks), then their
# total. Run from the repository root:
#
#   bash scripts/loc.sh                               # every package outside e2ebench/
#   bash scripts/loc.sh internal/table internal/eer   # just these, plus their sum
set -euo pipefail
cd "$(dirname "$0")/.."
if [ $# -gt 0 ]; then
	dirs=("$@")
else
	mapfile -t dirs < <(find . -name '*.go' ! -name '*_test.go' ! -path './e2ebench/*' ! -path './.bench_build/*' \
		-exec dirname {} \; | sed 's|^\./||' | sort -u)
fi
total=0
for d in "${dirs[@]}"; do
	files=$(find "$d" -maxdepth 1 -name '*.go' ! -name '*_test.go' | sort)
	[ -n "$files" ] || { echo "loc.sh: no Go files in $d" >&2; exit 1; }
	# A line inside a /* ... */ block is a comment line up to the one
	# that closes it; that line counts only if code follows the "*/".
	n=$(awk '
		{ line = $0; sub(/^[ \t]+/, "", line) }
		inblock {
			end = index(line, "*/")
			if (!end) next
			inblock = 0
			line = substr(line, end + 2); sub(/^[ \t]+/, "", line)
			if (line != "") n++
			next
		}
		line == "" || substr(line, 1, 2) == "//" { next }
		substr(line, 1, 2) == "/*" { if (!index(substr(line, 3), "*/")) inblock = 1; next }
		{ n++ }
		END { print n + 0 }' $files)
	printf '%6d  %s\n' "$n" "$d"
	total=$((total + n))
done
printf '%6d  total\n' "$total"
