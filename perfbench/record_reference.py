"""Record the reference outputs of every workload variant into reference.json.

Run from the repository root on the commit whose answers are the reference:

    python3 perfbench/record_reference.py

Each variant's job is run once in this process; its outputs must pass the
workload's claims before they are recorded.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

from run import PINNED

os.environ.update(PINNED)   # before numpy is imported

import workloads
from worker import ROOT, import_disspec, execute


def main() -> int:
    import_disspec()
    refs = {"rtol": workloads.REF_RTOL, "atol": workloads.REF_ATOL,
            "digest_digits": workloads.DIGEST_DIGITS, "workloads": {}}
    (ROOT / "perfbench" / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / "perfbench" / "out") as tmp:
        for name in workloads.WORKLOADS:
            refs["workloads"][name] = {}
            for variant in range(workloads.N_VARIANTS):
                work = workloads.build(name, variant)
                res = execute(work, Path(tmp) / "job", ref=None)
                if not res["ok"]:
                    print(f"{name} variant {variant} failed:", *res["problems"],
                          sep="\n", file=sys.stderr)
                    return 1
                out = workloads.referenced(res["outputs"])
                refs["workloads"][name][str(variant)] = {
                    "inputs": work.inputs(), "outputs": out,
                    "digest": workloads.digest(out)}
                print(f"{name} variant {variant}: {res['seconds']:.2f} s, "
                      f"digest {workloads.digest(out)}", file=sys.stderr)
    workloads.REFERENCE_PATH.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
