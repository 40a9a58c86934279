"""Regenerate the stored simulate reference outputs for gate.REFERENCE_SEED.

    python3 perfbench/make_reference.py

Only for a commit whose simulate outputs are known good: the gate compares
every later run of that seed against these files at 1e-13.
"""

import os
import shutil
import sys
import time

import gate
import run


def main() -> int:
    seed = gate.REFERENCE_SEED
    run_dir = os.path.join(run.OUT, "reference")
    shutil.rmtree(run_dir, ignore_errors=True)
    input_dir, workdir = os.path.join(run_dir, "inputs"), os.path.join(run_dir, "work")
    os.makedirs(input_dir)
    args = run.cli_args("simulate", seed, workdir, input_dir)
    rec = run.run_child(run_dir, args, False, time.monotonic() + run.RUN_DEADLINE_S)
    if rec.get("exit_code") != 0:
        print(f"simulate failed: {rec}", file=sys.stderr)
        return 1
    os.makedirs(gate.REFERENCE_DIR, exist_ok=True)
    _, q = gate.read_trajectory(workdir)
    lines = ["n,re_q,im_q"] + [f"{n},{float(q[n].real)!r},{float(q[n].imag)!r}"
                               for n in gate.reference_nodes(q.size - 1)]
    with open(os.path.join(gate.REFERENCE_DIR, "trajectory.csv"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
    shutil.copyfile(os.path.join(workdir, "final_state.txt"),
                    os.path.join(gate.REFERENCE_DIR, "final_state.txt"))
    problems = gate.check_simulate(workdir, seed)
    print("reference written; gate:", problems or "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
