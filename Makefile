# Entry points for local use and CI.
#
# `make ci` is the gate: build, the build-profile guard (no library
# module compiled with `-opaque`), lint (warnings-as-errors), the full
# test suite (including the differential oracle between the reference
# and jit dispatch tiers, and the CLI exit-code rules), the
# dispatch-parity gate (the differential, property, `Perf`-tier and block-cache
# suites in isolation — it fails printing the qcheck fuzz seed and
# shrunk program on any state-hash mismatch — and, as its last command,
# the plan-soundness gate: `cheriot_audit plans`, where every jit check
# plan on the shipped images proves equivalent to the all-full plan and
# every seeded optimizer mutant is refuted), the static firmware audit
# (`cheriot_audit all`: shipped images audit clean, the bad-image corpus
# is fully detected), and the incremental-audit gate (`cheriot_audit
# incremental`: a one-compartment patch re-analyzes only that
# compartment and the warm report is byte-identical to a cold audit).
# `make verify-plans` runs the plan-soundness gate alone.  Performance
# is measured by perfbench, paired against a parent revision by
# `bench/ab.exe`.

.PHONY: all build no-opaque lint test parity prop-long audit verify-plans audit-incremental ci clean

all: build

build:
	dune build

# Build-profile guard: no library module may be compiled with `-opaque`
# (dune's dev profile passes it, which stops cross-module inlining;
# `dune-workspace` selects the release profile instead).  Fails when
# the build left no .cmx to inspect, or when any compile line of one
# carries the flag.
no-opaque: build
	@cmx=$$(find _build/default/lib -name '*.cmx'); \
	test -n "$$cmx" || { echo "no-opaque: no .cmx under _build/default/lib"; exit 1; }; \
	n=$$(dune rules $$cmx | grep -c -- -opaque); \
	test "$$n" -eq 0 || { echo "no-opaque: $$n library compile lines carry -opaque"; exit 1; }

# Warnings-as-errors pass over the whole tree.  The `lint` env profile
# in the root `dune` file enables the same warning set the default build
# makes fatal and promotes every enabled warning to an error, so `make
# lint` is at least as strict as `dune build`.
lint:
	dune build --profile lint @check

test: build
	dune runtest

# Static firmware audit: every shipped image must audit clean, and every
# deliberately-bad corpus image must trip exactly its expected rule
# (no false negatives, no false positives).  Prints the JSON findings
# report for the shipped images.
audit: build
	dune exec bin/cheriot_audit.exe -- all

# Plan-soundness gate: run every shipped image under the jit tier
# (forced hot), statically prove every compiled check plan equivalent
# to the all-full plan, and refute every seeded optimizer mutant with
# exactly its expected plan-* rule.  Prints the JSON report.
verify-plans: build
	dune exec bin/cheriot_audit.exe -- plans

# Incremental-audit gate: for each shipped image, prime the summary
# cache, patch one instruction in one compartment and re-audit warm;
# fails unless only the patched compartment was re-analyzed and the
# warm report is byte-identical to a from-scratch audit.
audit-incremental: build
	dune exec bin/cheriot_audit.exe -- incremental

# Dispatch parity: the two dispatch tiers (ref / jit, the jit at its
# default hotness and pinned to 2 and 1) must be observationally
# identical on random streams, on generated multi-compartment scenarios
# (switcher cross-calls, allocator churn, revocation sweeps, code
# patches), under interrupt injection, on coremark, and where
# straight-line code falls off the PCC's top mid-block or at a block's
# end (the one per-word fetch check translation keeps) — and so must
# both `Perf` tiers under the cycle model (simulated totals, mcycle,
# the preemptive schedule, revoker grants).  The block-cache suite pins
# the translation cache the jit runs on: chaining, store kills, flushes,
# one basic block per translation unit, slot conflicts, the paged slot
# table, a warm jit that allocates nothing and a cold batch of
# generated programs under 20 minor words per retired instruction.
# Alcotest prints the failing qcheck seed and the shrunk program
# listing on a mismatch.
parity: build
	dune exec test/test_cheriot.exe -- test differential
	dune exec test/test_cheriot.exe -- test proptest
	dune exec test/test_cheriot.exe -- test uarch
	dune exec test/test_cheriot.exe -- test preemption
	dune exec test/test_cheriot.exe -- test block-cache
	dune exec bin/cheriot_audit.exe -- plans

# The same property family with 20x the iteration counts (PROP_ITERS
# multiplies every qcheck ~count in lib/proptest and the harness-scaled
# unit suites), plus the word register file property (`isa`: random
# register writes and capability instructions on the jit against a
# capability-array model, the oracle for the register representation)
# and the auditor's scaled suites: the abstract domain's lattice laws
# and join contract, and incremental re-audit against from-scratch.
# Not part of `make ci`; run before cutting a release or after touching
# the dispatch paths, the register file or the auditor's fixpoint.
prop-long: build
	PROP_ITERS=20 dune exec test/test_cheriot.exe -- test proptest
	PROP_ITERS=20 dune exec test/test_cheriot.exe -- test differential
	PROP_ITERS=20 dune exec test/test_cheriot.exe -- test fuzz
	PROP_ITERS=20 dune exec test/test_cheriot.exe -- test isa
	PROP_ITERS=20 dune exec test/test_cheriot.exe -- test absdom
	PROP_ITERS=20 dune exec test/test_cheriot.exe -- test incremental

ci: build no-opaque lint test parity audit audit-incremental

clean:
	dune clean
