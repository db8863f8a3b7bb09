#!/usr/bin/env bash
# The mutation gate: apply each mutant of a committed catalogue to a
# scratch copy of the tree, run the tests of its packages there, and
# report it killed — naming the tests that failed, grouped by suite — or
# survived. The tree itself is never written.
#
#   scripts/mutate.sh [NAME...]
#
# With names, only those mutants run. The catalogue is
# scripts/mutants.tsv; its header gives the format. A mutant whose text
# is gone from its file, or appears there more than once, no longer
# applies and fails the run, as does a survivor. A failing test counts
# for the suite its name places it in: digest (…Digest…), golden
# (…Golden…), conformance (…Conformance…) or unit (the rest); a package
# that fails with no test named (a build error, a panic outside a test,
# a timeout) counts as crash.
set -u
GO=${GO:-go}
catalogue=scripts/mutants.tsv
[ -r "$catalogue" ] || { echo "mutate: no catalogue $catalogue"; exit 2; }

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
trap 'exit 130' INT TERM
# Tracked files plus new ones not yet added, as they are on disk.
git ls-files -co --exclude-standard -z |
	tar --null --ignore-failed-read -T - -cf - 2>/dev/null | tar -xf - -C "$tmp" || exit 2

wanted() {
	[ $# -eq 1 ] && return 0
	local name=$1 w
	shift
	for w in "$@"; do [ "$w" = "$name" ] && return 0; done
	return 1
}

total=0 killed=0 survived=0 broken=0
declare -A by_suite=()
while IFS=$'\t' read -r name file pkgs old new; do
	case $name in '' | '#'*) continue ;; esac
	wanted "$name" "$@" || continue
	total=$((total + 1))
	printf -v old '%b' "$old"
	if [ "$new" = - ]; then new=; else printf -v new '%b' "$new"; fi
	content=$(cat "$tmp/$file"; printf x)
	content=${content%x}
	rest=${content//"$old"/}
	n=$(((${#content} - ${#rest}) / ${#old}))
	if [ "$n" -ne 1 ]; then
		printf 'BROKEN   %-30s %s holds the text %d times, not once\n' "$name" "$file" "$n"
		broken=$((broken + 1))
		continue
	fi
	cp "$tmp/$file" "$tmp/.pristine"
	printf '%s' "${content/"$old"/"$new"}" >"$tmp/$file"
	# shellcheck disable=SC2086 # pkgs is a list
	out=$(cd "$tmp" && "$GO" test -count=1 -timeout 120s $pkgs 2>&1 </dev/null)
	status=$?
	mv "$tmp/.pristine" "$tmp/$file"
	if [ $status -eq 0 ]; then
		printf 'survived %-30s %s\n' "$name" "$file"
		survived=$((survived + 1))
		continue
	fi
	killed=$((killed + 1))
	declare -A suites=()
	for t in $(printf '%s\n' "$out" | sed -n 's/^--- FAIL: \([^ /]*\).*/\1/p' | sort -u); do
		case $t in
		*Digest*) s=digest ;;
		*Golden*) s=golden ;;
		*Conformance*) s=conformance ;;
		*) s=unit ;;
		esac
		suites[$s]="${suites[$s]:-}${suites[$s]:+ }$t"
	done
	[ ${#suites[@]} -eq 0 ] && suites[crash]=$(printf '%s\n' "$out" | grep -m1 -E 'panic:|cannot|undefined|timed out|FAIL' || echo '?')
	line=
	for s in digest golden conformance unit crash; do
		[ -n "${suites[$s]:-}" ] || continue
		line="$line${line:+; }$s: ${suites[$s]}"
		by_suite[$s]=$((${by_suite[$s]:-0} + 1))
	done
	printf 'killed   %-30s %s\n' "$name" "$line"
	unset suites
done <"$catalogue"

tally=
for s in digest golden conformance unit crash; do
	[ -n "${by_suite[$s]:-}" ] && tally="$tally${tally:+, }$s ${by_suite[$s]}"
done
echo "mutate: $total mutants: $killed killed, $survived survived, $broken no longer apply${tally:+ (killing suites: $tally)}"
[ $((survived + broken)) -eq 0 ]
