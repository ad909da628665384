#!/usr/bin/env bash
# Fails when README.md or DESIGN.md reference repo paths that do not exist,
# or when DESIGN.md and the code disagree on the names of the conformance
# oracles and lint rules. Registered as the `doc_refs` ctest entry.
# Checked path prefixes: src/ tests/ bench/ examples/ scripts/ .github/
# (build/ outputs are intentionally not checked — they only exist after a
# build). Supports the `foo.{hpp,cpp}` brace shorthand used in the docs.
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0
for doc in README.md DESIGN.md; do
  [ -f "$doc" ] || { echo "missing doc: $doc"; fail=1; continue; }
  refs=$(grep -oE '(src|tests|bench|examples|scripts|\.github)/[A-Za-z0-9_./{},*-]+' "$doc" \
         | sed 's/[.,;:)]*$//' | sort -u || true)
  for ref in $refs; do
    # Expand foo.{hpp,cpp} into both members.
    if [[ "$ref" == *'{'* ]]; then
      base="${ref%%\{*}"; rest="${ref#*\{}"; exts="${rest%%\}*}"
      IFS=',' read -ra parts <<< "$exts"
      expanded=()
      for p in "${parts[@]}"; do expanded+=("${base}${p}"); done
    else
      expanded=("$ref")
    fi
    for path in "${expanded[@]}"; do
      # A reference is valid when the path exists, it names a source file
      # without extension (`bench/fig1_gantt` -> bench/fig1_gantt.cpp), or
      # it is a glob that matches something (`tests/test_*.cpp`).
      if [ -e "$path" ] || [ -e "$path.cpp" ] || compgen -G "$path" > /dev/null; then
        continue
      fi
      echo "$doc references nonexistent path: $path"
      fail=1
    done
  done
done

# Source comments cite design sections as "DESIGN.md §N" (optionally
# §N.M); every cited integer section must still exist as a "## N." heading,
# or the comment silently points at nothing after a renumbering.
sections=$(grep -oE '^## [0-9]+\.' DESIGN.md | grep -oE '[0-9]+' | sort -un)
cited=$(grep -rhoE 'DESIGN\.md §[0-9]+' src tests bench examples scripts \
        | grep -oE '[0-9]+$' | sort -un || true)
for sec in $cited; do
  if ! printf '%s\n' "$sections" | grep -qx "$sec"; then
    echo "source comments cite DESIGN.md §$sec but DESIGN.md has no '## $sec.' heading"
    fail=1
  fi
done

# Every rule name referenced by an MRA_NOLINT suppression anywhere in the
# repo must exist in the linter's rule registry (scripts/mra_lint.py
# --list-rules) — a renamed rule must not leave dangling suppressions that
# silently stop suppressing.
rules=$(python3 scripts/mra_lint.py --list-rules)
nolint_refs=$(grep -rhoE 'MRA_NOLINT\(([^)]*)\)' \
                src tests bench examples 2>/dev/null \
              | sed -E 's/^MRA_NOLINT\(//; s/\)$//' | tr ',' '\n' \
              | sed -E 's/^ +//; s/ +$//' | sort -u || true)
for rule in $nolint_refs; do
  if ! printf '%s\n' "$rules" | grep -qx "$rule"; then
    # The fixtures deliberately reference a nonexistent rule to prove the
    # linter rejects it; they are the linter's test inputs, not users of it.
    if grep -rlE "MRA_NOLINT\([^)]*\b$rule\b" src tests bench examples \
         | grep -qv '^tests/lint_fixtures/'; then
      echo "MRA_NOLINT references unknown lint rule: $rule" \
           "(not in scripts/mra_lint.py --list-rules)"
      fail=1
    fi
  fi
done

# Every conformance oracle and every lint rule resolves in both the code and
# DESIGN.md: each oracle's name() in src/check/oracles.hpp is a "* **name**"
# bullet of "### Oracle semantics", each rule of mra_lint.py --list-rules is
# a "| `name` |" row of "### The rule registry", and neither section
# documents a name the code no longer has. A rename in one place only fails.
section() {  # the lines of DESIGN.md's "### $1" section
  awk -v head="### $1" '$0 == head || index($0, head " ") == 1 {on = 1; next}
                        /^##/ {on = 0} on' DESIGN.md
}
crosscheck() {  # kind, names in the code, names in the docs
  local kind=$1 code=$2 docs=$3
  if [ -z "$code" ]; then
    echo "found no $kind names in the code"
    fail=1
  fi
  for name in $code; do
    if ! printf '%s\n' "$docs" | grep -qxF -- "$name"; then
      echo "$kind \"$name\" is not documented in DESIGN.md"
      fail=1
    fi
  done
  for name in $docs; do
    if ! printf '%s\n' "$code" | grep -qxF -- "$name"; then
      echo "DESIGN.md documents $kind \"$name\", which the code does not have"
      fail=1
    fi
  done
}
oracles=$(sed -nE 's/.*std::string_view name\(\) \{ return "([^"]+)"; \}.*/\1/p' \
            src/check/oracles.hpp | sort -u)
documented_oracles=$(section "Oracle semantics" \
                     | sed -nE 's/^\* \*\*([^*]+)\*\*.*/\1/p' | sort -u)
crosscheck oracle "$oracles" "$documented_oracles"
documented_rules=$(section "The rule registry" \
                   | sed -nE 's/^\| `([^`]+)` \|.*/\1/p' | sort -u)
crosscheck "lint rule" "$(printf '%s\n' "$rules" | sort -u)" "$documented_rules"

if [ "$fail" -ne 0 ]; then
  echo "doc reference check FAILED"
  exit 1
fi
echo "doc reference check OK"
