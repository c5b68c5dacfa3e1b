#!/usr/bin/env bash
# Docs-consistency check (run by tier1.sh after the release build):
#   1. every --flag in the --help of fedclust_sim, fedclust_report,
#      fedclust_server, and fedclust_worker is documented somewhere in
#      README.md / EXPERIMENTS.md / docs/*.md, and every --flag those files
#      mention exists in one of the four --helps (minus known non-CLI
#      flags), and README's --method row lists exactly the methods
#      fedclust_sim --help names;
#   2. every relative markdown link in docs/*.md points at a real file;
#   3. every `path:line` or `path:first-last` anchor in README.md,
#      ROADMAP.md and docs/*.md names a real file and lines that exist.
# Usage: tools/check_docs.sh [sim] [report] [server] [worker]
set -euo pipefail
cd "$(dirname "$0")/.."

sim="${1:-build/tools/fedclust_sim}"
report="${2:-build/tools/fedclust_report}"
server="${3:-build/tools/fedclust_server}"
worker="${4:-build/tools/fedclust_worker}"
for bin in "$sim" "$report" "$server" "$worker"; do
  [ -x "$bin" ] || { echo "check_docs: $bin not built" >&2; exit 1; }
done

doc_files=(README.md EXPERIMENTS.md docs/*.md)
fail=0

# Flags that appear in the docs but belong to cmake/ctest/benchmark
# invocations, not to fedclust_sim / fedclust_report.
ignore='^(benchmark_filter|build|extras|preset|test-dir|output-on-failure|help)$'

help_flags=$({ "$sim" --help; "$report" --help; "$server" --help;
               "$worker" --help; } |
             grep -oE '^  --[a-zA-Z][a-zA-Z0-9_-]*' |
             sed 's/^  --//' | sort -u)
doc_flags=$(grep -ohE '\-\-[a-zA-Z][a-zA-Z0-9_-]*' "${doc_files[@]}" |
            sed 's/^--//' | sort -u)

# Membership tests read here-strings, not `echo | grep -q`: grep -q exits
# at the first match, and under pipefail the echo's SIGPIPE would then
# report a documented flag as missing.
for f in $help_flags; do
  grep -qE "$ignore" <<<"$f" && continue
  grep -qx -- "$f" <<<"$doc_flags" ||
    { echo "check_docs: --$f is in --help but undocumented" >&2; fail=1; }
done
for f in $doc_flags; do
  grep -qE "$ignore" <<<"$f" && continue
  grep -qx -- "$f" <<<"$help_flags" ||
    { echo "check_docs: docs mention --$f, absent from --help" >&2; fail=1; }
done

# 1b. Per-binary attribution: a doc line that names a specific binary and
# mentions --flags must only use flags that binary (or another binary named
# on the same line) actually has — catches flags documented against the
# wrong tool, not just unknown flags.
declare -A bin_flags
bin_flags[fedclust_sim]=$("$sim" --help |
  grep -oE '^  --[a-zA-Z][a-zA-Z0-9_-]*' | sed 's/^  --//' | sort -u)
bin_flags[fedclust_report]=$("$report" --help |
  grep -oE '^  --[a-zA-Z][a-zA-Z0-9_-]*' | sed 's/^  --//' | sort -u)
bin_flags[fedclust_server]=$("$server" --help |
  grep -oE '^  --[a-zA-Z][a-zA-Z0-9_-]*' | sed 's/^  --//' | sort -u)
bin_flags[fedclust_worker]=$("$worker" --help |
  grep -oE '^  --[a-zA-Z][a-zA-Z0-9_-]*' | sed 's/^  --//' | sort -u)
for doc in "${doc_files[@]}"; do
  while IFS=: read -r lineno line; do
    bins=$(grep -oE 'fedclust_(sim|report|server|worker)' <<<"$line" |
           sort -u)
    [ -n "$bins" ] || continue
    allowed=""
    for b in $bins; do allowed+="${bin_flags[$b]}"$'\n'; done
    for f in $(grep -oE -- '\-\-[a-zA-Z][a-zA-Z0-9_-]*' <<<"$line" |
               sed 's/^--//' | sort -u); do
      grep -qE "$ignore" <<<"$f" && continue
      grep -qx -- "$f" <<<"$allowed" ||
        { echo "check_docs: $doc:$lineno documents --$f against" \
               "$(echo "$bins" | paste -sd,), which lacks it" >&2; fail=1; }
    done
  done < <(grep -nE 'fedclust_(sim|report|server|worker)' "$doc" |
           grep -E -- '\-\-[a-zA-Z]' || true)
done

# 1c. The README's --method row names exactly the methods fedclust_sim
# accepts (its --help lists them, built from the method registry).
help_methods=$("$sim" --help | grep -A1 -E '^  --method=' | tail -n 1 |
               tr -d ' ' | tr '|' '\n' | sort)
readme_methods=$(grep -E '^\| `--method` \| algorithm: ' README.md |
                 sed -E 's/^\| `--method` \| algorithm: (.*) \|$/\1/' |
                 sed 's/, /\n/g' | sort)
if [ -z "$help_methods" ] || [ "$help_methods" != "$readme_methods" ]; then
  echo "check_docs: README --method row differs from --help:" \
       "$(diff <(echo "$readme_methods") <(echo "$help_methods") |
          grep -E '^[<>]' | paste -sd' ')" >&2
  fail=1
fi

# Relative markdown links: [text](target) where target is not a URL or
# a pure #fragment must resolve against the doc's own directory.
for doc in docs/*.md; do
  while IFS= read -r target; do
    case "$target" in
      http://*|https://*|\#*|mailto:*) continue ;;
    esac
    path="${target%%#*}"
    [ -z "$path" ] && continue
    [ -e "$(dirname "$doc")/$path" ] ||
      { echo "check_docs: $doc links to missing file $target" >&2; fail=1; }
  done < <(grep -oE '\]\([^)]+\)' "$doc" | sed 's/^](//; s/)$//')
done

# file:line anchors: `src/foo/bar.cpp:123`, or a range
# `src/foo/bar.cpp:120-130`, must name a real file with at least that many
# lines, so doc references rot loudly instead of silently.
for doc in README.md ROADMAP.md docs/*.md; do
  while IFS= read -r anchor; do
    path="${anchor%:*}"
    range="${anchor##*:}"
    first="${range%-*}"
    last="${range#*-}"
    if [ ! -f "$path" ]; then
      echo "check_docs: $doc anchors missing file $path" >&2; fail=1
    elif [ "$first" -gt "$last" ]; then
      echo "check_docs: $doc anchor $anchor is an empty range" >&2; fail=1
    elif [ "$last" -gt "$(wc -l < "$path")" ]; then
      echo "check_docs: $doc anchor $anchor is past end of file" >&2; fail=1
    fi
  done < <(grep -ohE \
             '`[A-Za-z0-9_./-]+\.(h|cpp|sh|md|json):[0-9]+(-[0-9]+)?`' \
             "$doc" | tr -d '`')
done

[ "$fail" -eq 0 ] || exit 1
echo "check_docs ok"
