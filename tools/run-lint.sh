#!/usr/bin/env bash
# clang-tidy over the simulator sources using the repo's .clang-tidy
# profile and the compile database from the default build directory.
#
# Degrades gracefully: toolchains without clang-tidy (the perf container
# ships GCC only) skip with a notice and exit 0, so CI lanes can call this
# unconditionally and only clang-equipped lanes enforce it.
#
# Usage: tools/run-lint.sh [BUILD_DIR] [JOBS]
set -euo pipefail
cd "$(dirname "$0")/.."

build_dir="${1:-build}"
jobs="${2:-$(nproc)}"

# Source gates (toolchain-free, always enforced): each fails the run and
# prints the offending lines when its grep finds any.
fail_on() {
  if [ -n "$2" ]; then
    echo "run-lint: $1:"
    echo "$2"
    exit 1
  fi
}

# The backend-agnostic engine layer must stay consumable by everything
# above it, so src/core may depend only on core/, sim/, and telemetry/
# headers — never on runtime/, bench/, or analysis/. A violation here is
# how facade abstractions rot: the shared layer quietly reaches back up
# the stack.
fail_on "LAYERING VIOLATION — src/core includes an upper layer" \
  "$(grep -rn '#include "\(runtime\|bench\|analysis\)/' src/core || true)"
# Telemetry sits below every other layer (DESIGN.md §6), so any layer can
# report through it: it may include only its own headers and
# core/types.hpp.
fail_on "LAYERING VIOLATION — src/telemetry includes another layer" \
  "$(grep -rn '#include "' src/telemetry |
     grep -v '#include "\(telemetry/[^"]*\|core/types\.hpp\)"' || true)"
# No compatibility shims: a [[deprecated]] declaration is a second
# spelling of something that already has one. Port its callers and
# delete it instead.
fail_on "DEPRECATED DECLARATION under src/ (port its callers, delete it)" \
  "$(grep -rn '\[\[deprecated' src || true)"
echo "run-lint: source gates OK (src/core and src/telemetry layering," \
  "no [[deprecated]] under src/)"

if ! command -v clang-tidy > /dev/null 2>&1; then
  echo "run-lint: clang-tidy not installed; skipping (install LLVM to lint)"
  exit 0
fi

if [ ! -f "$build_dir/compile_commands.json" ]; then
  echo "run-lint: generating compile database in $build_dir"
  cmake -B "$build_dir" -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON > /dev/null
fi

# Lint the first-party translation units; generated/third-party code and
# the assembly shim are out of scope.
mapfile -t sources < <(git ls-files 'src/**/*.cpp' 'bench/*.cpp' \
                                    'tools/*.cpp')
echo "run-lint: ${#sources[@]} files, -j$jobs"

if command -v run-clang-tidy > /dev/null 2>&1; then
  run-clang-tidy -p "$build_dir" -j "$jobs" -quiet "${sources[@]}"
else
  status=0
  for f in "${sources[@]}"; do
    clang-tidy -p "$build_dir" --quiet "$f" || status=1
  done
  exit "$status"
fi
