#!/usr/bin/env bash
# Checks the `go test -run '...'` patterns of the CI workflow:
#   - every alternative of every pattern names at least one test (or fuzz
#     target) in the packages of its line. `go test -run` passes silently
#     with "[no tests to run]" when the test a pattern names was renamed or
#     deleted, so a step can stop testing anything and stay green;
#   - no test is named by the patterns of two different steps. The race
#     step already runs every test; a named step exists to call out one
#     invariant, and a test belongs to one of them.
# Run from anywhere: bash .github/check-run-patterns.sh
set -euo pipefail
cd "$(dirname "$0")/.."

status=0
declare -A stepOf # package.Test → the step whose pattern names it
while IFS=$'\t' read -r step line; do
	pattern=$(sed -E "s/.*-run '([^']*)'.*/\1/" <<<"$line")
	[[ "$pattern" == '^$' ]] && continue # a fuzz or benchmark step: it runs no tests by design
	read -ra pkgs <<<"$(sed -E "s/.*-run '[^']*'//" <<<"$line" | grep -oE '\./[^ ]*' | tr '\n' ' ')"
	# go test -list prints a package's names, then its "ok <package>" line.
	listed=$(go test -list "$pattern" "${pkgs[@]}" |
		awk '/^(Test|Fuzz|Benchmark|Example)/ { names[n++] = $1; next }
			/^ok/ { for (i = 0; i < n; i++) print $2 "." names[i]; n = 0 }')
	names=$(sed -E 's/.*\.//' <<<"$listed")
	IFS='|' read -ra alts <<<"$pattern"
	for alt in "${alts[@]}"; do
		if ! grep -qE -- "$alt" <<<"$names"; then
			echo "ci.yml: -run alternative '$alt' matches no test in ${pkgs[*]}" >&2
			status=1
		fi
	done
	while IFS= read -r test; do
		[[ -z "$test" ]] && continue
		if [[ -z "${stepOf[$test]:-}" ]]; then
			stepOf[$test]=$step
		elif [[ "${stepOf[$test]}" != "$step" ]]; then
			echo "ci.yml: $test is named by steps '${stepOf[$test]}' and '$step'" >&2
			status=1
		fi
	done <<<"$listed"
done < <(awk '/^ *- name: / { sub(/^ *- name: /, ""); step = $0; next }
	/go test .*-run '\''/ { print step "\t" $0 }' .github/workflows/ci.yml)
if [[ $status == 0 ]]; then
	echo "every -run alternative in ci.yml matches a test, and no test is named by two steps"
fi
exit $status
