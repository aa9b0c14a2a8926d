"""Record the reference outputs the benchmark checks every pass against.

    python3 perfbench/record.py

For every workload and each of its data seeds (``Workload.data_seeds``),
runs one pass and stores each step's fingerprint (a count or a digest of its
tables, trees and scores) in ``perfbench/references.json``. Record only from a
commit whose outputs are known to be right: later runs treat any
difference as a wrong output.
"""
from __future__ import annotations

import json
import sys

import run


def main() -> int:
    run.require_sources()
    run.spark_environment()
    refs: dict = {}
    try:
        spark = run.new_session()
        for name, wl in run.WORKLOADS.items():
            for seed in wl.data_seeds:
                state: dict = {}
                run.build_input(spark, wl, seed, state)
                ops = run.Ops()
                out = run.run_pass(spark, wl, seed, state, ops, known_defect=False)
                if ops.failed:
                    sys.exit(f"{name} seed {seed}: {ops.failed} calls failed; nothing recorded")
                ref = {step: run.fingerprint(step, v) for step, v in out.items()}
                ref["recipes"] = len(state["pdf"])
                refs.setdefault(name, {})[str(seed)] = ref
                print(name, seed, ref, flush=True)
                run.release(state, out, wl)
                if state.get("df") is not None:
                    state.pop("df").unpersist(blocking=True)
    finally:
        run.stop_jvm()
    run.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
