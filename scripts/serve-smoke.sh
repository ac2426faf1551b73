#!/bin/sh
# End-to-end smoke of the incremental porting daemon (docs/SERVE.md):
# start `atomig -serve`, load a generated module via path, port to a
# file, edit one function through the protocol, re-port, and require
# (a) both ports byte-identical to what the CLI produces for the same
# module, (b) the edit rebuilt exactly one snapshot function and the
# re-port re-analyzed exactly that one, (c) the cold port copied every
# snapshot function and the warm re-port fewer than half of them, and
# (d) a clean shutdown with exit 0.
#
# The protocol executes requests on one connection concurrently, so
# the driver waits for each response before sending an order-dependent
# follow-up — exactly what a real client must do (docs/SERVE.md).
#
# Usage: serve-smoke.sh <atomig> <atomig-bench> <workdir> [sloc]
set -eu

ATOMIG=$1
BENCH=$2
DIR=$3
SLOC=${4:-8000}

"$BENCH" -gen-module "$DIR/serve-smoke.c" -sloc "$SLOC" >/dev/null

rm -f "$DIR/req" "$DIR/resp"
mkfifo "$DIR/req"
# -log on: structured logging must not perturb the byte-identity
# contract the warm re-port is compared under.
"$ATOMIG" -serve -j 1 -log "$DIR/serve-log.jsonl" <"$DIR/req" >"$DIR/resp" &
SRV=$!
trap 'kill $SRV 2>/dev/null || true' EXIT
exec 3>"$DIR/req"

send() { printf '%s\n' "$1" >&3; }

# wait_ok <id>: block until the response for <id> arrives; require ok.
wait_ok() {
	i=0
	while ! grep -q "\"id\":\"$1\"" "$DIR/resp" 2>/dev/null; do
		i=$((i + 1))
		if [ "$i" -gt 600 ]; then
			echo "serve-smoke: timeout waiting for response $1" >&2
			exit 1
		fi
		sleep 0.1
	done
	if ! grep "\"id\":\"$1\"" "$DIR/resp" | grep -q '"ok":true'; then
		echo "serve-smoke: request $1 failed:" >&2
		grep "\"id\":\"$1\"" "$DIR/resp" >&2
		exit 1
	fi
}

# Cold: load via path, port to a file, byte-compare with the CLI.
"$ATOMIG" -j 1 -o "$DIR/serve-ref-cold.air" "$DIR/serve-smoke.c"
# The module name must match the CLI's (it names modules by file
# path, and the name is the first line of the rendered output).
send "{\"id\":\"load\",\"op\":\"load\",\"name\":\"$DIR/serve-smoke.c\",\"path\":\"$DIR/serve-smoke.c\"}"
wait_ok load
send "{\"id\":\"cold\",\"op\":\"port\",\"out\":\"$DIR/serve-cold.air\"}"
wait_ok cold
cmp "$DIR/serve-ref-cold.air" "$DIR/serve-cold.air"

# field <id> <name>: the integer field <name> of the response to <id>.
field() {
	grep "\"id\":\"$1\"" "$DIR/resp" | sed -n "s/.*\"$2\":\([0-9]*\).*/\1/p"
}
# With every summary slot empty, the cold port copies every snapshot
# function (the rest of a port shares the session's snapshot).
FUNCS=$(field load funcs)
COLD_COPIED=$(field cold FunctionsCopied)
if [ -z "$FUNCS" ] || [ "$COLD_COPIED" != "$FUNCS" ]; then
	echo "serve-smoke: cold port copied ${COLD_COPIED:-?} of ${FUNCS:-?} functions, want all:" >&2
	grep '"id":"cold"' "$DIR/resp" >&2
	exit 1
fi

# Edit one function: give @lg_compute0 the donor body of @lg_compute1
# (generated filler functions share a signature and are never called).
send "{\"id\":\"dump0\",\"op\":\"dump\",\"out\":\"$DIR/serve-dump0.air\"}"
wait_ok dump0
DELTA=$(sed -n '/@lg_compute1(/,/^}/p' "$DIR/serve-dump0.air" |
	sed 's/@lg_compute1(/@lg_compute0(/' | awk '{printf "%s\\n", $0}')
send "{\"id\":\"edit\",\"op\":\"edit\",\"replace\":[\"$DELTA\"]}"
wait_ok edit
# The edit rebuilt the edited function's snapshot entry and reused every
# other one: an uncalled function's edit must not rebuild the snapshot.
# The daemon logs the event before it answers the edit.
if ! grep '"ev":"serve.snapshot_rebuilt"' "$DIR/serve-log.jsonl" | grep -q '"rebuilt":1,'; then
	echo "serve-smoke: the edit did not rebuild exactly 1 snapshot function:" >&2
	grep '"ev":"serve.snapshot_rebuilt"' "$DIR/serve-log.jsonl" >&2 || echo "(no serve.snapshot_rebuilt event)" >&2
	exit 1
fi

# Warm re-port: exactly one cache miss (the edited function), and the
# output byte-identical to the CLI porting the dumped edited module.
send "{\"id\":\"warm\",\"op\":\"port\",\"out\":\"$DIR/serve-warm.air\"}"
wait_ok warm
if ! grep '"id":"warm"' "$DIR/resp" | grep -q '"CacheMisses":1[,}]'; then
	echo "serve-smoke: warm re-port did not have exactly 1 cache miss:" >&2
	grep '"id":"warm"' "$DIR/resp" >&2
	exit 1
fi
if grep '"id":"warm"' "$DIR/resp" | grep -q '"CacheHits":0[,}]'; then
	echo "serve-smoke: warm re-port had no cache hits:" >&2
	grep '"id":"warm"' "$DIR/resp" >&2
	exit 1
fi
# The warm re-port copies only the functions it writes.
WARM_COPIED=$(field warm FunctionsCopied)
if [ -z "$WARM_COPIED" ] || [ $((2 * WARM_COPIED)) -ge "$FUNCS" ]; then
	echo "serve-smoke: warm re-port copied ${WARM_COPIED:-?} of $FUNCS functions, want fewer than half:" >&2
	grep '"id":"warm"' "$DIR/resp" >&2
	exit 1
fi
send "{\"id\":\"dump1\",\"op\":\"dump\",\"out\":\"$DIR/serve-dump1.air\"}"
wait_ok dump1
"$ATOMIG" -j 1 -o "$DIR/serve-ref-warm.air" "$DIR/serve-dump1.air"
cmp "$DIR/serve-ref-warm.air" "$DIR/serve-warm.air"

# Clean shutdown: the daemon drains and exits 0.
send '{"id":"bye","op":"shutdown"}'
wait_ok bye
exec 3>&-
wait $SRV
trap - EXIT
echo "serve-smoke: ok (cold and warm ports byte-identical to CLI, 1 snapshot function rebuilt, warm re-analysis = 1 function, $WARM_COPIED of $FUNCS functions copied warm)"
