#!/usr/bin/env bash
# Runs the mutation catalogue, ci/mutants.txt (or the file given as the
# first argument): each row's mutant is applied alone to a copy of the
# tree and `cargo test -q --no-fail-fast` runs there, so every test that
# kills it is seen. Fails when a `killed-by` mutant survives or its test is
# not among the failures, when a `survives` mutant is killed, when a row's
# source line no longer matches exactly once, when a mutant does not
# build, or when its tests hang: a row's tests get `limit` seconds, then
# their whole process group is killed and the run goes on to the next row.
#
# With --check-lines first, nothing is copied, built or run: each row is
# only checked to be complete and its source line to match exactly once
# in the tree as it stands. That takes a second, so it can run on every
# change; the full run takes a tier-1 run per row.
#
# The copy and its build live under target/mutants (MUTANTS_DIR overrides).
# Cargo decides what to rebuild by modification time, so every file of a
# fresh copy, and every file a row restores, is stamped with the time it
# was written: a build left over from an earlier mutant is never reused.
set -uo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
lines_only=0
if [ "${1:-}" = --check-lines ]; then
    lines_only=1
    shift
fi
catalogue=${1:-$root/ci/mutants.txt}
work=${MUTANTS_DIR:-$root/target/mutants}
limit=600
tree=$work/tree
export CARGO_TARGET_DIR=$work/target

# The tree as it stands, tracked and new files alike, without build output.
if [ "$lines_only" = 0 ]; then
    rm -rf "$tree"
    mkdir -p "$tree"
    (cd "$root" && git ls-files -z -co --exclude-standard) |
        (cd "$root" && xargs -0 -r sh -c 'for f; do [ -e "$f" ] && printf "%s\0" "$f"; done' sh) |
        tar -C "$root" --null -T - -cf - | tar -C "$tree" -m -xf -
fi

# Writes `file` with the one line whose trimmed text is FROM replaced by
# TO (indentation kept); exits 3 unless exactly one line matched.
mutate() {
    awk '
        { body = $0; sub(/^[ \t]+/, "", body) }
        body == ENVIRON["FROM"] {
            n++
            print substr($0, 1, length($0) - length(body)) ENVIRON["TO"]
            next
        }
        { print }
        END { if (n != 1) exit 3 }
    ' "$1"
}

# Puts the row's file back, stamped now (see above).
restore() {
    mv "$1.orig" "$1"
    touch "$1"
}

failed=0
ran=0
check() {
    local name=$1 file=$2 from=$3 to=$4 expect=$5
    local path=$tree/$file log=$work/$name.log
    ran=$((ran + 1))
    if [ -z "$name" ] || [ -z "$file" ] || [ -z "$from" ] || [ -z "$to" ] || [ -z "$expect" ]; then
        echo "FAIL $name: incomplete row"
        failed=1
        return
    fi
    if [ "$lines_only" = 1 ]; then
        case "$expect" in
            killed-by\ * | survives:*) ;;
            *)
                echo "FAIL $name: unknown expectation '$expect'"
                failed=1
                return
                ;;
        esac
        if FROM=$from TO=$to mutate "$root/$file" > /dev/null; then
            echo "ok   $name: its line occurs once in $file"
        else
            echo "FAIL $name: '$from' does not occur exactly once in $file"
            failed=1
        fi
        return
    fi
    cp "$path" "$path.orig"
    if ! FROM=$from TO=$to mutate "$path.orig" > "$path"; then
        echo "FAIL $name: '$from' does not occur exactly once in $file"
        restore "$path"
        failed=1
        return
    fi
    if ! (cd "$tree" && cargo test -q --no-run) > "$log" 2>&1; then
        echo "FAIL $name: the mutant does not build (see $log)"
        restore "$path"
        failed=1
        return
    fi
    # `timeout` runs cargo in a process group of its own and signals the
    # whole group, so no test binary outlives a hung row.
    local outcome=survived
    (cd "$tree" && timeout -k 10 "$limit" cargo test -q --no-fail-fast) >> "$log" 2>&1
    case $? in
        0) ;;
        124 | 137) outcome=hung ;;
        *) outcome=killed ;;
    esac
    restore "$path"
    if [ "$outcome" = hung ]; then
        echo "FAIL $name: hung after $limit s (see $log)"
        failed=1
        return
    fi
    local killers
    killers=$(sed -n 's/^---- \(.*\) stdout ----$/\1/p' "$log" | sort -u | paste -sd ' ' -)
    case "$expect" in
        killed-by\ *)
            local test=${expect#killed-by }
            if [ "$outcome" = survived ]; then
                echo "FAIL $name: survived tier-1; expected $test to kill it"
                failed=1
            elif ! grep -qxF -- "---- $test stdout ----" "$log"; then
                echo "FAIL $name: killed by $killers, not by $test (see $log)"
                failed=1
            else
                echo "ok   $name: killed by $killers"
            fi
            ;;
        survives:*)
            if [ "$outcome" = killed ]; then
                echo "FAIL $name: killed by $killers, but the row says it survives (see $log)"
                failed=1
            else
                echo "ok   $name: survives, as recorded"
            fi
            ;;
        *)
            echo "FAIL $name: unknown expectation '$expect'"
            failed=1
            ;;
    esac
}

name= file= from= to= expect=
flush() {
    if [ -n "$name$file$from$to$expect" ]; then
        check "$name" "$file" "$from" "$to" "$expect"
    fi
    name= file= from= to= expect=
}
while IFS= read -r line || [ -n "$line" ]; do
    case "$line" in
        '#'*) ;;
        '') flush ;;
        name:*) name=${line#name:} name=${name# } ;;
        file:*) file=${line#file:} file=${file# } ;;
        from:*) from=${line#from:} from=${from# } ;;
        to:*) to=${line#to:} to=${to# } ;;
        expect:*) expect=${line#expect:} expect=${expect# } ;;
        *) echo "FAIL: unreadable catalogue line: $line"; failed=1 ;;
    esac
done < "$catalogue"
flush

if [ "$ran" -eq 0 ]; then
    echo "FAIL: no rows in $catalogue"
    exit 1
fi
echo "$ran mutants checked"
exit "$failed"
