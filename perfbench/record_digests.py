"""Record the round-0 output digests of the current program.

    python3 perfbench/record_digests.py --seeds 0-20

Runs round 0 of every workload for each seed and writes the SHA-256 of all
its output text to perfbench/digests.json.  run.py compares each run's
digest with the recorded one: on unchanged behaviour they match, so a
change that alters any output byte shows.
"""
from __future__ import annotations

import argparse
import json
import sys

import run
import workloads


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="0-20", help="inclusive range a-b")
    args = ap.parse_args(argv)
    lo, hi = (int(v) for v in args.seeds.split("-"))
    sys.path.insert(0, str(run.ROOT / "src"))
    cli = run.import_package()
    table = json.loads(run.DIGESTS.read_text()) if run.DIGESTS.exists() else {}
    for workload in workloads.WORKLOADS:
        for seed in range(lo, hi + 1):
            tally = run.Tally()
            for req in workloads.round_requests(workload, seed, 0):
                rc, out, err, _ = run.send(cli, req)
                tally.record(req, rc, out, err, True)
            if tally.failed:
                sys.exit("%s seed %d: %d failed checks, not recorded: %s"
                         % (workload, seed, tally.failed, tally.failures[0]))
            table.setdefault(workload, {})[str(seed)] = tally.digest.hexdigest()
            print(workload, seed, table[workload][str(seed)], flush=True)
    run.DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
