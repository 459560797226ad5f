"""Shows that each output check accepts a real output and rejects a corrupted one.

    python3 perfbench/selftest.py

Runs one op of each kind through the CLI, checks it, then corrupts the
output in one way per case and checks again.  Also installs and removes
the span recorder and compares every vkit binding before and after.
Exits 1 if a clean output is rejected, a corrupted one is accepted, or a
binding is not restored.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import sys

import checks
import run
import workloads
from spans import Recorder


def _perturb_h0_row(op, stdout):
    path = op.out / "diagram.csv"
    lines = path.read_text().splitlines()
    i = next(k for k, line in enumerate(lines) if line.startswith("0,") and "inf" not in line)
    dim, birth, death = lines[i].split(",")
    lines[i] = f"{dim},{birth},{float(death) * (1.0 + 1e-9)!r}"
    path.write_text("\n".join(lines) + "\n")
    return stdout


def _drop_essential_h0(op, stdout):
    path = op.out / "diagram.csv"
    lines = path.read_text().splitlines()
    path.write_text("".join(line + "\n" for line in lines
                            if not (line.startswith("0,") and line.endswith(",inf"))))
    return stdout


def _support_outside_element(op, stdout):
    path = op.out / "summary.json"
    summary = json.loads(path.read_text())
    summary["vertices"]["0,0"] = {"support": [0, 2], "weights": [0.5, 0.5]}
    path.write_text(json.dumps(summary))
    return stdout


def _wrong_failed_stage(op, stdout):
    path = op.out / "summary.json"
    summary = json.loads(path.read_text())
    summary["failed_stage"] = "label_simplices"
    path.write_text(json.dumps(summary))
    return stdout


def _nonzero_failures(op, stdout):
    header, first, *rest = stdout.splitlines()
    first = re.sub(r"^(\S+\s+\d+\s+)0\b", r"\g<1>1", first)
    return "\n".join([header, first, *rest]) + "\n"


CASES = [
    ("persist", 0, "perturbed H0 death", _perturb_h0_row),
    ("persist", 1, "essential H0 class removed", _drop_essential_h0),
    ("straighten", 0, "support moved outside its element", _support_outside_element),
    ("straighten", len(workloads.STRAIGHTEN_RES), "spread run names another stage",
     _wrong_failed_stage),
    ("verify", 0, "nonzero failure count", _nonzero_failures),
]


def _bindings() -> dict:
    """Every vkit module global, registry entry and class attribute, by identity."""
    seen = {}
    for modname, mod in sys.modules.items():
        if modname == "vkit" or modname.startswith("vkit."):
            for attr, value in vars(mod).items():
                seen[(modname, attr)] = id(value)
                if isinstance(value, type):
                    seen.update({(modname, attr, k): id(v) for k, v in vars(value).items()})
    seen["GENERATORS"] = [id(f) for f in sys.modules["vkit.generators"].GENERATORS.values()]
    seen["ALL_CHECKS"] = [id(f) for _, f in sys.modules["vkit.verify"].ALL_CHECKS]
    return seen


def check_recorder() -> bool:
    """Imported names are wrapped while installed and all restored afterwards."""
    before = _bindings()
    recorder = Recorder()
    recorder.install()
    try:
        imported = [sys.modules["vkit.cli"].compute_diagram,
                    sys.modules["vkit.verify"].wasserstein,
                    sys.modules["vkit.straightening"].label_simplices,
                    sys.modules["vkit.generators"].GENERATORS["two_ball"],
                    sys.modules["vkit.verify"].ALL_CHECKS[0][1]]
        wrapped = all(hasattr(fn, "__wrapped__") for fn in imported)
    finally:
        recorder.uninstall()
    ok = wrapped and _bindings() == before
    print(f"{'ok  ' if ok else 'FAIL'} spans: imported names wrapped -> {wrapped}; "
          f"all bindings restored -> {_bindings() == before}")
    return ok


def main() -> int:
    cli, names = run.import_vkit()
    bad = not check_recorder()
    work = run.ROOT / ".perfbench_work" / f"selftest-{os.getpid()}"
    try:
        for workload, index, label, corrupt in CASES:
            op = workloads.make_ops(workload, 1, work / workload)[index]
            stdout, rc = run.call_cli(cli, op)
            clean = checks.check_op(op, rc, stdout, names)
            dirty = checks.check_op(op, rc, corrupt(op, stdout), names)
            ok = not clean and bool(dirty)
            bad += not ok
            print(f"{'ok  ' if ok else 'FAIL'} {workload}: clean -> {clean or 'accepted'}; "
                  f"{label} -> {dirty or 'accepted'}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
