"""The benchmark smoke run's checks, read from what the run left.

    python tests/smoke_records.py OUTPUT [RECORDS]

OUTPUT holds what `perfbench/run.py --trace 1` printed, its last line the
run's JSON summary; RECORDS is a glob of the traced records it wrote
(default `perfbench/out/*-trace1.json`). It exits 1 with the first check
that fails, and 0 with a one-line summary when all pass.
"""
from __future__ import annotations

import glob
import json
import sys

# the benchmark looks nuolab's layers up by name: a renamed one shows as a
# missing span or an incorrect run, and a bypassed one as a kernel layer
# that made no call. A span can be found and still do no work, so the
# version-space kernel's restrict must be called where its games run (the
# pools' state walk on pool-hier and loop-coin), each exact oracle where
# the oracles are timed, and the dimension, witness and SOA rule where
# realizable-adaptive's natures and learners call them. A pool replay's
# plan keeps the walk of a script replayed twice in a row and skips it from
# the third replay on, and the walk still runs here: the traced batch
# replays the untraced batch's scripts, with classes built afresh, and a
# script holds its class, so the traced batch's first replay of each script
# walks it; and coin-flip scripts never repeat
RESTRICT = ["littlestone.restrict"]
BUSY = {"pool-hier": RESTRICT, "loop-coin": RESTRICT,
        "realizable-adaptive": RESTRICT + ["littlestone.ldim", "littlestone.witness",
                                           "littlestone.soa_prediction"],
        "oracle-exact": ["littlestone.ldim", "littlestone.witness",
                         "littlestone.verify_witness", "littlestone.minimax"]}


def refusal(last: dict, records: dict[str, dict]) -> str | None:
    """Why the smoke run fails, or None if it passes. `last` is the run's
    summary, and `records` each traced record by its path: the run is
    correct, it wrote a record, no record misses a span, and each workload
    has a record, whose spans in `BUSY` each made a call."""
    if last.get("correct") is not True:
        return f"perfbench reported correct={last.get('correct')!r}"
    if not records:
        return "perfbench wrote no traced records"
    busy = dict(BUSY)
    for path, record in sorted(records.items()):
        missing = record.get("missing_spans")
        if missing != []:
            return f"{path}: missing_spans = {missing!r}"
        for span in busy.pop(record.get("workload"), []):
            if not record["spans"].get(span, {}).get("calls", 0):
                return f"{path}: {span} made no call"
    if busy:
        return f"no traced record for {sorted(busy)}"
    return None


def main(argv: list[str]) -> int:
    output, pattern = (argv + ["perfbench/out/*-trace1.json"])[:2]
    with open(output) as f:
        last = json.loads(f.read().strip().splitlines()[-1])
    records = {}
    for path in glob.glob(pattern):
        with open(path) as f:
            records[path] = json.load(f)
    why = refusal(last, records)
    if why is not None:
        print(why, file=sys.stderr)
        return 1
    print(f"correct; {len(records)} traced records with no missing spans, "
          "and a busy version-space kernel and exact oracles")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
