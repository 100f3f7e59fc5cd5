#!/bin/sh
# check_construction.sh — enforce the single-construction-path invariant.
#
# Every policy, predictor, and DBRB wrapper must be built through the
# component registry (internal/exp) so that experiment specs, CLI
# expressions, and the paper's figure sweeps all share one construction
# path with the paper-default seeds and configs. This guard fails if a
# direct constructor call (policy.New*, predictor.New*) or a raw config
# source (predictor.DefaultSamplerConfig)
# appears anywhere outside:
#
#   internal/exp/        the registry itself
#   internal/policy/     the package's own code
#   internal/predictor/  the package's own code
#   internal/hier/hier.go  documented exception: the private L1/L2
#                          levels are architecturally fixed at plain
#                          LRU and keep PlainLRU devirtualization
#   *_test.go            tests may hand-build to cross-check the registry
#
# policy.NewDuel is excluded from the pattern: it constructs the
# set-dueling monitor (a mechanism inside dbrb/dueling and DIP-style
# policies), not a replacement policy.
set -eu
cd "$(dirname "$0")/.."

violations=$(grep -rnE '\b(policy|predictor)\.(New[A-Z][A-Za-z0-9_]*|DefaultSamplerConfig)\b' \
    --include='*.go' . \
  | grep -v '_test\.go:' \
  | grep -vE '^\./(internal/exp|internal/policy|internal/predictor)/' \
  | grep -v '^\./internal/hier/hier\.go:' \
  | grep -v 'policy\.NewDuel' \
  || true)

if [ -n "$violations" ]; then
    echo "construction guard: direct constructor calls outside internal/exp:" >&2
    echo "$violations" >&2
    echo "route these through the internal/exp registry (or add a documented exception here)" >&2
    exit 1
fi
echo "construction guard: ok"
