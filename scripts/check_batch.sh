#!/bin/sh
# check_batch.sh — enforce the block-granular hot-path invariant.
#
# The campaign drive loops dispatch at block granularity: RunSingle's
# producer runs hier.Core.FilterBlock over each chunk and its consumer
# hands the LLC-bound records to cache.AccessBatch, MaterializeSampled
# filters each window's accesses with FilterBlock, RunSampledTrace
# replays windows through cache.AccessBatch, and RunMulticore filters
# each core's stream through the same FilterBlock producer before the
# ordered LLC merge. This guard fails when (a) one of those wiring
# points disappears, or (b) a new per-access dispatch site (.Access( on
# a core or cache) shows up on the simulation path without being added
# to the documented allowlist below.
#
# Allowlisted per-access sites — each is per-access by necessity:
#
#   multicore.go llc.Access(f.LLC)   the shared-LLC merge is inherently
#                                    one record at a time (timestamp
#                                    ordering across cores)
#   diff.go      (whole file)        the stream-differential harness
#                                    compares per-access on purpose
#   *_test.go                        tests cross-check batch vs scalar
set -eu
cd "$(dirname "$0")/.."

missing=""
require() { # file pattern description
    if ! grep -q "$2" "$1"; then
        missing="${missing}
  $1: expected \`$2\` ($3)"
    fi
}
require internal/sim/sim.go '\.FilterBlock(' \
    "the drive-loop producer's private-level filter"
require internal/sim/sim.go '\.AccessBatch(' \
    "RunSingle's batched LLC leg"
require internal/sim/sampled.go 'filter\.FilterBlock(' \
    "MaterializeSampled's batched window filter"
require internal/sim/sampled.go 'llc\.AccessBatch(' \
    "RunSampledTrace's batched window replay"
require internal/sim/multicore.go 'startProducer(' \
    "RunMulticore's per-core FilterBlock prefilter"

if [ -n "$missing" ]; then
    echo "batch guard: block-granular wiring missing:$missing" >&2
    exit 1
fi

violations=$(grep -rn '\.Access(' internal/sim internal/figures \
    --include='*.go' \
  | grep -v '_test\.go:' \
  | grep -v '^internal/sim/diff\.go:' \
  | grep -v 'llc\.Access(f\.LLC)' \
  || true)

if [ -n "$violations" ]; then
    echo "batch guard: per-access dispatch on the simulation path:" >&2
    echo "$violations" >&2
    echo "route bulk traffic through FilterBlock/AccessBatch (or add a documented exception here)" >&2
    exit 1
fi
echo "batch guard: ok"
