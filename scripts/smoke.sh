#!/usr/bin/env bash
# One vfpgad service smoke: build the daemon and the loader into .smoke/,
# boot vfpgad on an ephemeral port, wait for its address, drive it with
# vfpgaload, SIGTERM it and require a clean drain.
#
#   scripts/smoke.sh NAME "DAEMON ARGS" "LOADER ARGS" ["POST CHECK"]
#
# {addr} in LOADER ARGS is replaced by the daemon's host:port. The smoke
# passes when vfpgaload exits zero, vfpgad drains and exits zero, and the
# optional POST CHECK command (run after the drain) exits zero. Both
# argument strings are shell-evaluated, so quote inside them as needed.
set -u
name=$1 daemon_args=$2 loader_args=$3 post_check=${4:-}
GO=${GO:-go}

rm -rf .smoke && mkdir -p .smoke
"$GO" build -o .smoke/vfpgad ./cmd/vfpgad || exit 1
"$GO" build -o .smoke/vfpgaload ./cmd/vfpgaload || exit 1

eval "exec ./.smoke/vfpgad -addr 127.0.0.1:0 -addr-file .smoke/addr $daemon_args" > .smoke/vfpgad.log 2>&1 &
pid=$!
for _ in $(seq 1 100); do [ -s .smoke/addr ] && break; sleep 0.1; done
if [ ! -s .smoke/addr ]; then
	echo "vfpgad did not come up"; cat .smoke/vfpgad.log; kill "$pid" 2>/dev/null; exit 1
fi
addr=$(cat .smoke/addr)

ok=1
eval "./.smoke/vfpgaload ${loader_args//\{addr\}/$addr}" || ok=0
kill -TERM "$pid"
wait "$pid" || ok=0
if [ -n "$post_check" ]; then eval "$post_check" || ok=0; fi

if [ $ok -eq 1 ]; then
	echo "$name: ok"; rm -rf .smoke
else
	echo "$name: FAILED"; cat .smoke/vfpgad.log; exit 1
fi
