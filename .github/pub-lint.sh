#!/usr/bin/env bash
# Every `pub` item of a library crate or shim has a user outside the crate.
#
#   .github/pub-lint.sh [ROOT]     (ROOT defaults to the current directory)
#
# Lists each `pub` fn (methods included), struct, enum, union, trait, const,
# static and type alias in the non-test part of every file under
# crates/*/src and shims/*/src (the lines before its first `#[cfg(test)]`,
# as the line ratchet counts them). An item fails when its name appears as
# a word in no `.rs` file outside its crate's src/ — another crate, the
# root package, tests/, examples/, perf/, or the crate's own src/bin, which
# are other targets; of a file under crates/*/src or shims/*/src only the
# non-test part counts, since another crate's unit tests are no user of
# the API — unless .github/pub-allow lists it for that crate, one
# `crate-dir name reason…` line per deliberate API (crate-dir is crates/X or
# shims/X). An allow line without a reason, or one that no failing item of
# its crate needs, fails too. A name used only inside its
# crate wants `pub(crate)`; rustc's dead_code lint then sees it.
set -euo pipefail
root=${1:-.}
cd "$root"
allow=.github/pub-allow
words=$(mktemp)
trap 'rm -f "$words"' EXIT

status=0
flagged=""
for src in crates/*/src shims/*/src; do
  names=$(find "$src" -name '*.rs' -not -path "$src/bin/*" -print0 | sort -z \
    | xargs -0 awk 'FNR==1{skip=0} /^#\[cfg\(test\)\]/{skip=1} !skip' \
    | { grep -oE '^[[:space:]]*pub ((const|unsafe|async) )*(fn|struct|enum|union|trait|const|static|type) [A-Za-z_][A-Za-z0-9_]*' || true; } \
    | awk '{print $NF}' | sort -u)
  find . -name '*.rs' -not -path '*/target/*' \( -not -path "./$src/*" -o -path "./$src/bin/*" \) -print0 \
    | xargs -0 awk 'FNR==1{skip=0} FILENAME~/^\.\/(crates|shims)\/[^/]+\/src\// && /^#\[cfg\(test\)\]/{skip=1} !skip' \
    | { grep -ohE '[A-Za-z_][A-Za-z0-9_]*' || true; } | sort -u > "$words"
  for name in $(comm -23 <(echo "$names") "$words"); do
    flagged="$flagged $src:$name"
    if ! grep -qE "^${src%/src}[[:space:]]+$name[[:space:]]" "$allow"; then
      echo "$src: pub $name has no user outside the crate (make it pub(crate), or list it in $allow)"
      status=1
    fi
  done
done

while read -r crate name reason; do
  case "$crate" in '' | '#'*) continue ;; esac
  if [ -z "$reason" ]; then
    echo "$allow: $crate $name has no reason"
    status=1
  elif ! [[ " $flagged " == *" $crate/src:$name "* ]]; then
    echo "$allow: $crate $name is stale (no item of that crate needs it)"
    status=1
  fi
done < "$allow"
exit "$status"
