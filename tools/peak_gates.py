#!/usr/bin/env python3
"""Peak-memory gates: drg commands at large degree, each under a peak bound.

    python tools/peak_gates.py

Each row of ``GATES`` runs in a fresh child process whose working directory
holds C_2000 and D_1000 as ``c2000.json`` and ``d1000.json``. A gate passes
when drg exits 0 with rho = 1 and a peak below the bound. One PASS or FAIL
line is printed per gate, with the child's wall time, and the exit status
is 1 if any gate fails.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from drg.constructions import cyclic_group, dihedral_group

# (drg arguments, peak bound in MB); times and peaks from a 2-vCPU machine
GATES = [
    # 0.8-0.9 s, 49 MB: C_2000's regular subgroup closes rho = 1 with no search; its one
    # generator is checked by its cycle, and closing it again would peak at 79 MB
    (["analyze", "c2000.json"], 70),
    # 0.3 s, 31 MB: |G_0| = 2 takes the census's mask path over 500 cosets, as no catalog group does
    (["analyze", "d1000.json"], 45),
    # 0.2-0.3 s, 25 MB: the greedy clique reaches 12, so no adjacency row is built
    (["density", "M12:12"], 40),
    # 1.1 s, 51 MB: the 1999 rotations are the greedy clique; no mask or row is built
    (["density", "c2000.json"], 75),
]

# The child prints its VmHWM. Its ru_maxrss would also count the parent's
# peak, which Linux carries across fork and exec, and RUSAGE_CHILDREN read
# in the parent is the largest over every child reaped so far.
_CHILD = """import sys
from drg.cli import main
rc = main(sys.argv[1:])
with open("/proc/self/status") as status:
    print(status.read().split("VmHWM:")[1].split()[0], file=sys.stderr)
sys.exit(rc)
"""


def run_drg(args: list[str], cwd: str | None = None):
    """Run ``drg.cli.main(args)`` in a fresh child process.

    Returns the finished process, with drg's own stdout and stderr, and the
    child's peak resident set size in MB, None if ``main`` did not return.
    """
    proc = subprocess.run([sys.executable, "-c", _CHILD, *args], capture_output=True, text=True,
                          cwd=cwd, timeout=120, env={**os.environ, "PYTHONPATH": str(SRC)})
    *rest, last = proc.stderr.splitlines() or [""]
    if not last.isdigit():
        return proc, None
    proc.stderr = "".join(line + "\n" for line in rest)
    return proc, int(last) / 1024  # VmHWM is in kB


def check_gate(args: list[str], bound_mb: int, cwd: str | None = None) -> tuple[bool, str]:
    """Run one gate: whether it passed, and its PASS or FAIL line."""
    command = " ".join(["drg", *args])
    start = time.perf_counter()
    try:
        proc, peak_mb = run_drg(args, cwd)
    except subprocess.TimeoutExpired as exc:
        return False, f"FAIL  {command}: no exit within {exc.timeout:.0f} s"
    report = json.loads(proc.stdout or "{}")  # drg prints the JSON report or nothing
    density = report.get("density", report)  # analyze nests the density report
    rho = (density.get("rho_lower"), density.get("rho_upper"))
    passed = (proc.returncode == 0 and rho == ("1", "1")
              and peak_mb is not None and peak_mb < bound_mb)
    peak = "no peak" if peak_mb is None else f"peak {peak_mb:.0f} MB"
    line = (f"{'PASS' if passed else 'FAIL'}  {command}: exit {proc.returncode},"
            f" rho [{rho[0]}, {rho[1]}], {peak}, bound {bound_mb} MB,"
            f" {time.perf_counter() - start:.1f} s")
    return passed, line + "".join(f"\n    {err}" for err in proc.stderr.splitlines()[-10:])


def main() -> int:
    passed = []
    with tempfile.TemporaryDirectory() as tmp:
        for G in (cyclic_group(2000), dihedral_group(1000)):
            Path(tmp, f"{G.name.lower()}.json").write_text(json.dumps(
                {"name": G.name, "degree": G.degree,
                 "generators": [list(g.images) for g in G.generators]}))
        for args, bound_mb in GATES:
            ok, line = check_gate(args, bound_mb, tmp)
            print(line, flush=True)
            passed.append(ok)
    return 0 if all(passed) else 1


if __name__ == "__main__":
    sys.exit(main())
