#!/usr/bin/env bash
# Static-analysis runner for leosim: clang-tidy (when installed) plus the
# project's custom lint, with optional SARIF output for code scanning.
# Exits non-zero on any unsuppressed finding.
#
# Usage:
#   tools/lint.sh [BUILD_DIR]
#
# BUILD_DIR must contain compile_commands.json (generated automatically
# by the root CMakeLists via CMAKE_EXPORT_COMPILE_COMMANDS). Defaults to
# ./build.
#
# Environment knobs:
#   LEOSIM_LINT_STRICT=1    clang-tidy missing becomes a hard failure
#                           instead of a soft skip. CI sets this so a
#                           broken toolchain image cannot silently turn
#                           the tidy gate off; locally the default soft
#                           skip keeps the custom lint usable without
#                           LLVM installed.
#   LEOSIM_SARIF_DIR=dir    also emit leosim_lint.sarif and (when tidy
#                           runs) clang_tidy.sarif into dir, each
#                           validated by tools/check_sarif.py.
#   LEOSIM_TIDY_CACHE_DIR=dir
#                           skip the clang-tidy pass when nothing it
#                           reads has changed: a stamp file keyed on the
#                           hash of compile_commands.json, .clang-tidy,
#                           and every candidate source records the last
#                           clean run. CI points this at a restored
#                           cache directory.

set -u -o pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-${repo_root}/build}"
strict="${LEOSIM_LINT_STRICT:-0}"
sarif_dir="${LEOSIM_SARIF_DIR:-}"
tidy_cache_dir="${LEOSIM_TIDY_CACHE_DIR:-}"
status=0

cd "${repo_root}"

if [[ -n "${sarif_dir}" ]]; then
  mkdir -p "${sarif_dir}"
fi

# ---------------------------------------------------------------- clang-tidy
clang_tidy_bin=""
for candidate in clang-tidy clang-tidy-19 clang-tidy-18 clang-tidy-17 \
                 clang-tidy-16 clang-tidy-15 clang-tidy-14; do
  if command -v "${candidate}" >/dev/null 2>&1; then
    clang_tidy_bin="${candidate}"
    break
  fi
done

# tests/lint_fixtures/ holds deliberately-broken sources for the lint
# self-test; they are not in compile_commands.json and must never reach
# clang-tidy. tools/ currently ships no C++ but is globbed so a future
# helper binary is covered the day it appears.
tidy_pathspecs=('src/*.cpp' 'cli/*.cpp' 'tests/*.cpp' 'bench/*.cpp' 'examples/*.cpp'
                'tools/*.cpp' ':!tests/lint_fixtures')

if [[ -z "${clang_tidy_bin}" ]]; then
  if [[ "${strict}" == "1" ]]; then
    echo "[lint] FAIL: clang-tidy not found and LEOSIM_LINT_STRICT=1" >&2
    echo "[lint] (CI must run the tidy gate; install clang-tidy or fix PATH)" >&2
    status=1
  else
    echo "[lint] clang-tidy not found on PATH -- skipping clang-tidy step"
  fi
elif [[ ! -f "${build_dir}/compile_commands.json" ]]; then
  echo "[lint] ${build_dir}/compile_commands.json missing -- configure with" >&2
  echo "[lint]   cmake -B ${build_dir} -S . (CMAKE_EXPORT_COMPILE_COMMANDS is on by default)" >&2
  status=1
else
  mapfile -t tidy_sources < <(git ls-files "${tidy_pathspecs[@]}")
  tidy_stamp=""
  if [[ -n "${tidy_cache_dir}" ]]; then
    mkdir -p "${tidy_cache_dir}"
    # Key on everything the tidy pass reads; any edit invalidates it.
    tidy_key="$( { cat "${build_dir}/compile_commands.json" .clang-tidy; \
                   cat "${tidy_sources[@]}"; } | sha256sum | cut -d' ' -f1)"
    tidy_stamp="${tidy_cache_dir}/clean-${tidy_key}"
  fi
  if [[ -n "${tidy_stamp}" && -f "${tidy_stamp}" ]]; then
    echo "[lint] clang-tidy inputs unchanged since last clean run -- skipping" \
         "(stamp ${tidy_stamp##*/})"
  else
    echo "[lint] running ${clang_tidy_bin} over ${#tidy_sources[@]} sources"
    jobs="$(nproc 2>/dev/null || echo 4)"
    tidy_out="$(mktemp)"
    if printf '%s\n' "${tidy_sources[@]}" \
        | xargs -P "${jobs}" -n 8 "${clang_tidy_bin}" -p "${build_dir}" --quiet \
        > "${tidy_out}" 2>/dev/null; then
      if [[ -n "${tidy_stamp}" ]]; then
        # Keep the cache dir bounded: one stamp, the current one.
        rm -f "${tidy_cache_dir}"/clean-* 2>/dev/null
        : > "${tidy_stamp}"
      fi
    else
      echo "[lint] clang-tidy reported findings:" >&2
      cat "${tidy_out}" >&2
      status=1
    fi
    if [[ -n "${sarif_dir}" ]]; then
      python3 "${repo_root}/tools/clang_tidy_sarif.py" \
          --input "${tidy_out}" --root "${repo_root}" \
          --output "${sarif_dir}/clang_tidy.sarif" || status=1
    fi
    rm -f "${tidy_out}"
  fi
fi

# ---------------------------------------------------------------- custom lint
echo "[lint] running tools/leosim_lint.py"
lint_args=()
if [[ -n "${sarif_dir}" ]]; then
  lint_args+=(--sarif "${sarif_dir}/leosim_lint.sarif")
fi
if ! python3 "${repo_root}/tools/leosim_lint.py" "${lint_args[@]}"; then
  status=1
fi

# ------------------------------------------------------------ SARIF validity
if [[ -n "${sarif_dir}" ]]; then
  mapfile -t sarif_files < <(find "${sarif_dir}" -maxdepth 1 -name '*.sarif')
  if [[ "${#sarif_files[@]}" -gt 0 ]]; then
    if ! python3 "${repo_root}/tools/check_sarif.py" "${sarif_files[@]}"; then
      status=1
    fi
  fi
fi

if [[ "${status}" -eq 0 ]]; then
  echo "[lint] OK"
fi
exit "${status}"
