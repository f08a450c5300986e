#!/usr/bin/env bash
# Mutant kill list. Each ci/mutants/*.patch is a small source diff that
# breaks one contract an oracle must catch. Its header holds two lines:
#
#   target: <cargo test target flags, e.g. --test frontier_differential>
#   must-fail: <the exact name of the test that must catch it>
#
# The script first runs every named test on the clean tree, where each
# must pass. Then, for each patch in turn, it applies it with
# `git apply`, runs the named test in release, and reverts it with
# `git apply -R`. It fails if a patch no longer applies, if the mutated
# tree does not build, or if a named test passes with its mutant applied.
#
# The mutants are applied in place, in this one checkout with one target
# directory, so every test binary is built from the tree it tests.
# Run it from a clean checkout: ci/mutants.sh
set -euo pipefail

cd "$(git rev-parse --show-toplevel)"

applied=""
trap '[ -z "$applied" ] || git apply -R "$applied"' EXIT

field() {
    sed -n "s/^$1: //p" "$2"
}

status=0
for patch in ci/mutants/*.patch; do
    target=$(field target "$patch")
    test=$(field must-fail "$patch")
    if [ -z "$target" ] || [ -z "$test" ]; then
        echo "FAIL $patch: its header needs 'target:' and 'must-fail:' lines" >&2
        exit 1
    fi
    # $target is split into words on purpose: it holds cargo's flags.
    # shellcheck disable=SC2086
    if ! cargo test --release -q $target -- --exact "$test"; then
        echo "FAIL $patch: $test fails without the mutant" >&2
        status=1
    fi
done

for patch in ci/mutants/*.patch; do
    target=$(field target "$patch")
    test=$(field must-fail "$patch")
    if ! git apply "$patch"; then
        echo "FAIL $patch: no longer applies" >&2
        status=1
        continue
    fi
    applied=$patch
    # shellcheck disable=SC2086
    if ! cargo test --release -q --no-run $target; then
        echo "FAIL $patch: the mutated tree does not build" >&2
        status=1
    elif cargo test --release -q $target -- --exact "$test"; then
        echo "FAIL $patch: $test passed with the mutant applied" >&2
        status=1
    else
        echo "killed: $patch by $test"
    fi
    git apply -R "$patch"
    applied=""
done
exit "$status"
