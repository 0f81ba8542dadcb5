#!/usr/bin/env bash
# Checks that every alternative of every `go test -run '...'` pattern in the
# CI workflow names at least one test (or fuzz target) in the packages of
# its step. `go test -run` passes silently with "[no tests to run]" when the
# test a pattern names was renamed or deleted, so a step can stop testing
# anything and stay green. Run from anywhere: bash .github/check-run-patterns.sh
set -euo pipefail
cd "$(dirname "$0")/.."

status=0
while IFS= read -r line; do
	pattern=$(sed -E "s/.*-run '([^']*)'.*/\1/" <<<"$line")
	[[ "$pattern" == '^$' ]] && continue # a fuzz or benchmark step: it runs no tests by design
	read -ra pkgs <<<"$(sed -E "s/.*-run '[^']*'//" <<<"$line" | grep -oE '\./[^ ]*' | tr '\n' ' ')"
	listed=$(go test -list "$pattern" "${pkgs[@]}" | grep -E '^(Test|Fuzz|Benchmark|Example)' || true)
	IFS='|' read -ra alts <<<"$pattern"
	for alt in "${alts[@]}"; do
		if ! grep -qE -- "$alt" <<<"$listed"; then
			echo "ci.yml: -run alternative '$alt' matches no test in ${pkgs[*]}" >&2
			status=1
		fi
	done
done < <(grep -E "go test .*-run '" .github/workflows/ci.yml)
if [[ $status == 0 ]]; then
	echo "every -run alternative in ci.yml matches a test"
fi
exit $status
