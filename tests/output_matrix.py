"""Byte-identity matrix of the eigenflow CLI between two source trees.

Usage::

    python3 tests/output_matrix.py PARENT_ROOT CHANGE_ROOT

Each root is a checkout with the package under ``src/``. For each one, in
its own temporary directory, this runs 82 invocations of
``python3 -m eigenflow.cli`` with ``PYTHONPATH=ROOT/src`` and
``OPENBLAS_NUM_THREADS=1``:

- ``presets``, the preset listing, with no config;
- every preset under ``simulate``, ``compare``, ``sweep``, ``moments``,
  ``invert`` and ``residual`` on a tiny config: n = 4, 8; 2 replicas;
  dt = 0.05; 21 record times on [0, 1]; alpha = 20 on ``wishart``;
  ``custom`` with g2 = 0.25 and h2 = 1;
- ``moments``, ``invert`` and ``residual`` on each preset's default config.

It prints the exit-code counts per root, then every file that differs
between the two runs: the configs, the outputs, and each invocation's
stdout, stderr and exit code. For a differing CSV or ``.dat`` file it also
prints the size of the difference: the largest absolute and relative
change over its numeric fields, paired line by line and field by field
(or that the files do not pair up so). A ``# timestamp=`` line and the
path of the run directory are ignored. The exit status is 0 when every
file matches and 1 otherwise. Standard library only; pytest does not
collect it.
"""

from __future__ import annotations

import collections
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

PRESETS = (
    "wigner", "wigner_real", "wishart", "wishart_nonunique", "geometric",
    "jacobi", "free_bm", "free_ou", "custom",
)
TINY_COMMANDS = ("simulate", "compare", "sweep", "moments", "invert", "residual")
DEFAULT_COMMANDS = ("moments", "invert", "residual")
TINY = (
    "n_list = 4, 8\nreplica_count = 2\ndt = 0.05\n"
    f"t_grid = {', '.join(f'{i / 20:g}' for i in range(21))}\n"
)
TINY_EXTRA = {"wishart": "alpha = 20\n", "custom": "g2 = 0.25\nh2 = 1\n"}
TIMESTAMP = b"# timestamp="


def invocations():
    """(label, subcommand, config text or None) of each of the 82 invocations."""
    yield "presets", "presets", None
    for preset in PRESETS:
        tiny = f"preset = {preset}\n{TINY}{TINY_EXTRA.get(preset, '')}"
        for command in TINY_COMMANDS:
            yield f"{command}-{preset}-tiny", command, tiny
        for command in DEFAULT_COMMANDS:
            yield f"{command}-{preset}-default", command, f"preset = {preset}\n"


def run(root: Path, work: Path) -> dict[str, bytes]:
    """Every file the invocations leave under ``work``, keyed by its path
    there, plus each one's stdout, stderr and exit code."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), OPENBLAS_NUM_THREADS="1")
    files = {}
    for label, command, text in invocations():
        case = work / label
        case.mkdir()
        args = [command]
        if text is not None:
            (case / "exp.cfg").write_text(text, encoding="utf-8")
            args += ["--config", "exp.cfg", "--out", "out"]
        proc = subprocess.run(
            [sys.executable, "-m", "eigenflow.cli", *args], cwd=case, env=env, capture_output=True
        )
        files[f"{label}/exit"] = str(proc.returncode).encode()
        files[f"{label}/stdout"] = proc.stdout
        files[f"{label}/stderr"] = proc.stderr
        for path in sorted(p for p in case.rglob("*") if p.is_file()):
            files[str(path.relative_to(work))] = path.read_bytes()
    return {
        name: b"".join(
            line for line in data.replace(os.fsencode(work), b"<run>").splitlines(keepends=True)
            if not line.startswith(TIMESTAMP)
        )
        for name, data in files.items()
    }


def numeric_change(old: bytes, new: bytes) -> tuple[float, float] | None:
    """The largest absolute and relative change over the numeric fields of
    two CSV or ``.dat`` texts, paired line by line and field by field (split
    at commas and whitespace); None when they do not pair up: a different
    line or field count, or a field that is no number and changed. The
    relative change of a pair is |a - b| / max(|a|, |b|)."""
    old_lines, new_lines = old.decode().splitlines(), new.decode().splitlines()
    if len(old_lines) != len(new_lines):
        return None
    largest_abs = largest_rel = 0.0
    for old_line, new_line in zip(old_lines, new_lines):
        old_fields, new_fields = (re.split(r"[,\s]+", line.strip()) for line in (old_line, new_line))
        if len(old_fields) != len(new_fields):
            return None
        for a_text, b_text in zip(old_fields, new_fields):
            try:
                a, b = float(a_text), float(b_text)
            except ValueError:
                if a_text != b_text:
                    return None
                continue
            if a == b or (math.isnan(a) and math.isnan(b)):
                continue
            change = abs(a - b)
            largest_abs = max(largest_abs, change)
            largest_rel = max(largest_rel, change / max(abs(a), abs(b)))
    return largest_abs, largest_rel


def describe(name: str, old: bytes | None, new: bytes | None) -> str:
    """``differs: name``, with the size of the change for a CSV or .dat file."""
    line = f"differs: {name}"
    if old is None or new is None or not name.endswith((".csv", ".dat")):
        return line
    change = numeric_change(old, new)
    if change is None:
        return f"{line} (lines or fields do not pair up)"
    return f"{line} (largest change {change[0]:.3g} absolute, {change[1]:.3g} relative)"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 tests/output_matrix.py PARENT_ROOT CHANGE_ROOT", file=sys.stderr)
        return 2
    runs = []
    for root in map(Path, argv):
        with tempfile.TemporaryDirectory(prefix="output-matrix-") as tmp:
            files = run(root.resolve(), Path(tmp))
        exits = collections.Counter(v.decode() for k, v in files.items() if k.endswith("/exit"))
        counts = ", ".join(f"{n} x exit {code}" for code, n in sorted(exits.items()))
        print(f"{root}: {counts}")
        runs.append(files)
    parent, change = runs
    names = sorted(parent.keys() | change.keys())
    differ = [name for name in names if parent.get(name) != change.get(name)]
    for name in differ:
        print(describe(name, parent.get(name), change.get(name)))
    print(f"{len(names)} files compared, {len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
