#!/usr/bin/env bash
# Documentation consistency checks, run by scripts/check.sh (the CI check
# job runs that script):
#
#   1. Markdown link check: every relative link target in README.md and
#      docs/*.md must exist on disk (http(s)/mailto links and pure
#      anchors are skipped; "path#anchor" checks the path part).
#   2. Source doc references: every `docs/<file>.md` that a `.h` or `.cc`
#      file under src/ mentions must exist — stale doc pointers in the
#      code are treated as build breakage.
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0

# --- 1. markdown relative links ---------------------------------------------
for md in README.md docs/*.md; do
  [[ -f "${md}" ]] || continue
  dir="$(dirname "${md}")"
  while IFS= read -r target; do
    target="${target%%#*}"          # drop anchors; "#section" -> ""
    [[ -z "${target}" ]] && continue
    case "${target}" in
      http://*|https://*|mailto:*) continue ;;
    esac
    if [[ "${target}" == /* ]]; then
      resolved=".${target}"          # repo-absolute
    else
      resolved="${dir}/${target}"    # relative to the doc
    fi
    if [[ ! -e "${resolved}" ]]; then
      echo "check_docs: ${md}: broken link -> ${target}"
      fail=1
    fi
  done < <(grep -oE '\]\([^)]+\)' "${md}" | sed -E 's/^\]\(//; s/\)$//' \
           | sed -E 's/[[:space:]]+"[^"]*"$//')
done

# --- 2. doc files mentioned by sources ---------------------------------------
while IFS= read -r src; do
  while IFS= read -r doc; do
    if [[ ! -f "${doc}" ]]; then
      echo "check_docs: ${src}: references missing ${doc}"
      fail=1
    fi
  done < <(grep -oE 'docs/[A-Za-z0-9_.-]+\.md' "${src}" | sort -u)
done < <(find src -type f \( -name '*.h' -o -name '*.cc' \) | sort)

if [[ "${fail}" == "1" ]]; then
  echo "check_docs: FAIL"
  exit 1
fi
echo "check_docs: OK"
