#!/usr/bin/env bash
# Documentation symbol check: every backticked `pkg.Ident` in README.md,
# DESIGN.md and EXPERIMENTS.md, where pkg is an internal/ package or the
# root dbre package, must name something declared in that package's
# non-test Go files (a function, method, type, var, const, or a name
# declared inside a var/const/type block). Exported names are always
# checked; lower-case names are checked only in camelCase, because
# single lower-case words and snake_case after a package prefix are the
# benchmark's per-layer metric names (`fd.checks`, `csvio.load_s`), not
# Go identifiers. ROADMAP.md and CHANGES.md are history and are not
# checked. Run from anywhere; exits non-zero listing every stale name.
set -euo pipefail
cd "$(dirname "$0")/.."

DOCS=(README.md DESIGN.md EXPERIMENTS.md)

# Package name → directory.
declare -A dirs=([dbre]=.)
while IFS= read -r d; do
  dirs[$(basename "$d")]=$d
done < <(find internal -name '*.go' ! -name '*_test.go' -exec dirname {} \; | sort -u)
pkgs=$(
  IFS='|'
  echo "${!dirs[*]}"
)

fail=0
checked=0
for doc in "${DOCS[@]}"; do
  while IFS= read -r ref; do
    [ -n "$ref" ] || continue
    pkg=${ref%%.*}
    ident=${ref#*.}
    case "$ident" in
    [A-Z]*) ;;
    *_*) continue ;;
    *[A-Z]*) ;;
    *) continue ;;
    esac
    checked=$((checked + 1))
    mapfile -t files < <(find "${dirs[$pkg]}" -maxdepth 1 -name '*.go' ! -name '*_test.go')
    if ! grep -qE "^func (\([^)]*\) )?${ident}[[(]|^(type|var|const) ${ident}\b|^	${ident}\b" "${files[@]}"; then
      echo "stale reference in $doc: \`$pkg.$ident\` is not declared in ${dirs[$pkg]}" >&2
      fail=1
    fi
  done < <(grep -o '`[^`]*`' "$doc" |
    grep -oE "(^|[^A-Za-z0-9_/.-])($pkgs)\.[A-Za-z_][A-Za-z0-9_]*" |
    sed -E 's/^[^a-z]//' | sort -u)
done

if [ "$fail" -ne 0 ]; then
  echo "docsyms.sh: documentation names symbols the code no longer declares" >&2
  exit 1
fi
echo "docsyms.sh: all $checked package-qualified names in the docs are declared"
