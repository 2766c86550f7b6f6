#!/bin/sh
# shadow_boundary -- fail if the shadow's trusted boundary grows.
#
# The shadow (src/shadowfs/) is the side of RAE that must stay small,
# single-threaded and verifiable (paper §2.3, §4.3): a pure library that
# maps a read-only device and an op log to an outcome. Everything
# operational -- the read-ahead's threads, trace spans, flight events --
# belongs to its caller (run_shadow, src/rae/executor.h). Four checks,
# enforced as the `shadow_boundary` ctest:
#
#  1. Header closure: the quoted includes of src/shadowfs/*.{h,cc},
#     followed transitively, stay inside common/, format/, oplog/ and
#     blockdev/block_device.h, and no file in the closure includes
#     <thread>, <condition_variable>, <future>, <mutex> or <shared_mutex>.
#  2. Link line: src/shadowfs/CMakeLists.txt links nothing beyond
#     raefs_common raefs_blockdev raefs_format raefs_oplog.
#  3. Symbols: when nm and the built library are at hand, the library's
#     undefined symbols name nothing in raefs::obs:: and no
#     raefs::BaseFs, WorkerPool, PrefetchedDevice or resolve_workers.
#  4. Link closure: the target_link_libraries lines of those four
#     libraries, followed transitively through src/<name>/CMakeLists.txt
#     for each raefs_<name>, never reach raefs_obs.
#
# It then prints the trusted size: the lines of src/shadowfs/ plus the
# lines of its header closure.
#
#   tools/shadow_boundary.sh [repo-root] [path/to/libraefs_shadowfs.a]
set -u

root="${1:-$(dirname "$0")/..}"
lib="${2:-}"
src="$root/src"
allowed_links="raefs_common raefs_blockdev raefs_format raefs_oplog"
failed=0

if [ ! -d "$src/shadowfs" ]; then
  echo "shadow_boundary: missing $src/shadowfs" >&2
  exit 1
fi

# --- check 1: header closure ----------------------------------------------
# Breadth-first over quoted includes, which are relative to src/.
seen=""
closure=""
todo=$(cd "$src" && ls shadowfs/*.h shadowfs/*.cc)
while [ -n "$todo" ]; do
  next=""
  for f in $todo; do
    case " $seen " in *" $f "*) continue ;; esac
    seen="$seen $f"
    if [ ! -f "$src/$f" ]; then
      echo "shadow_boundary: the shadow includes \"$f\", not under src/" >&2
      failed=$((failed + 1))
      continue
    fi
    case "$f" in
      shadowfs/*) ;;
      common/*|format/*|oplog/*|blockdev/block_device.h)
        closure="$closure $f" ;;
      *)
        echo "shadow_boundary: the shadow's header closure reaches $f" >&2
        failed=$((failed + 1))
        closure="$closure $f" ;;
    esac
    if grep -qE '^[[:space:]]*#[[:space:]]*include[[:space:]]*<(thread|condition_variable|future|mutex|shared_mutex)>' "$src/$f"; then
      echo "shadow_boundary: $f (in the shadow's closure) includes a" \
           "threading header" >&2
      failed=$((failed + 1))
    fi
    next="$next $(sed -n 's/^[[:space:]]*#[[:space:]]*include[[:space:]]*"\([^"]*\)".*/\1/p' "$src/$f")"
  done
  todo=$(echo $next)
done

# --- check 2: link line -----------------------------------------------------
links=$(tr '\n' ' ' < "$src/shadowfs/CMakeLists.txt" \
  | grep -o 'target_link_libraries([^)]*)' \
  | tr -s ' \t()' '\n' \
  | grep -v -x -e 'target_link_libraries' -e 'raefs_shadowfs' \
               -e 'PUBLIC' -e 'PRIVATE' -e 'INTERFACE' -e '')
for l in $links; do
  case " $allowed_links " in
    *" $l "*) ;;
    *)
      echo "shadow_boundary: raefs_shadowfs links $l (allowed:" \
           "$allowed_links)" >&2
      failed=$((failed + 1)) ;;
  esac
done

# --- check 3: undefined symbols ---------------------------------------------
if [ -n "$lib" ] && [ -f "$lib" ] && command -v nm >/dev/null 2>&1; then
  bad=$(nm -C --undefined-only "$lib" 2>/dev/null \
    | grep -E 'raefs::(obs::|BaseFs|WorkerPool|PrefetchedDevice|resolve_workers)' \
    | sed 's/^[[:space:]]*U[[:space:]]*//' | sort -u)
  if [ -n "$bad" ]; then
    echo "shadow_boundary: $(basename "$lib") needs symbols from outside" \
         "the boundary:" >&2
    echo "$bad" | sed 's/^/  /' >&2
    failed=$((failed + 1))
  fi
  symbols="checked"
else
  symbols="skipped (no nm or no library given)"
fi

# --- check 4: link closure ---------------------------------------------------
# The raefs_* libraries one target_link_libraries line of raefs_<name> names.
links_of() {
  f="$src/${1#raefs_}/CMakeLists.txt"
  [ -f "$f" ] || return 0
  tr '\n' ' ' < "$f" \
    | grep -o "target_link_libraries([[:space:]]*$1[[:space:]][^)]*)" \
    | tr -s ' \t()' '\n' \
    | grep -x 'raefs_[a-z_]*' | grep -v -x "$1"
}
reached=""
todo="$allowed_links"
while [ -n "$todo" ]; do
  next=""
  for l in $todo; do
    case " $reached " in *" $l "*) continue ;; esac
    reached="$reached $l"
    for dep in $(links_of "$l"); do
      if [ "$dep" = raefs_obs ]; then
        echo "shadow_boundary: $l links raefs_obs, which puts obs in the" \
             "shadow's link closure" >&2
        failed=$((failed + 1))
      fi
      next="$next $dep"
    done
  done
  todo=$(echo $next)
done

# --- trusted size -------------------------------------------------------------
shadow_lines=$(cd "$src" && cat shadowfs/*.h shadowfs/*.cc | wc -l)
headers=$(echo $closure | wc -w)
closure_lines=0
if [ "$headers" -gt 0 ]; then
  closure_lines=$(cd "$src" && cat $closure | wc -l)
fi
echo "shadow_boundary: trusted size $((shadow_lines + closure_lines)) lines" \
     "(src/shadowfs/ $shadow_lines + header closure of $headers headers," \
     "$closure_lines lines); symbols $symbols"

if [ "$failed" -ne 0 ]; then
  echo "shadow_boundary: $failed violation(s)" >&2
  exit 1
fi
echo "shadow_boundary: OK"
