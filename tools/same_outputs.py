"""Compare the CLI outputs of the working tree against a git revision.

Usage, from the root of a checkout:

    python3 tools/same_outputs.py REF

Runs `kdvgauge run` on every run config of tests/test_cli.py (MINIMAL,
SURVEY, EXPLICIT_SOLVER and each KIND_CONFIGS entry), on SURVEY again with `--seed 9`, on
VIOLATING with `--allow-hypothesis-violation`, and on the soliton,
drift_oracle and static_oracle workloads of perfbench/workloads.py at seed
1, once with the
working tree's `src/` and once with REF's, which is exported with
`git archive` into a temporary directory.  `kdvgauge check` runs on each
config too, since the hypothesis report it prints is in no output file;
its exit code, stdout and stderr are compared, stderr without the
indented traceback frames, which move with any edit of the code.
Both sides run the working tree's configs.  Prints "identical" per config,
or every moved CSV/JSON cell with its absolute and relative change and every
differing `check` line, then the config's largest relative change among the
numeric cells whose REF value has magnitude >= 1e-6; exits 1 if anything
moved or an exit code differs.  Beside each "identical" or "MOVED" it prints
the wall time of the `run` process on each side, REF first, interpreter
start-up included: information only, which neither the comparison nor the
exit code reads.  Runs one process at a time.
"""

import argparse
import ast
import csv
import difflib
import importlib.util
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1
WORKLOADS = ("soliton", "drift_oracle", "static_oracle")


def _module(path: Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _literals(path: Path, names) -> dict:
    """The literal values assigned to `names` at the top level of a file."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) in names
    }


def configs() -> dict:
    """name -> (config text, extra `kdvgauge run` arguments), from the
    working tree."""
    cli_tests = _literals(
        ROOT / "tests" / "test_cli.py",
        ("MINIMAL", "SURVEY", "VIOLATING", "EXPLICIT_SOLVER", "KIND_CONFIGS"),
    )
    workloads = _module(ROOT / "perfbench" / "workloads.py")
    out = {
        "MINIMAL": (cli_tests["MINIMAL"], []),
        "SURVEY": (cli_tests["SURVEY"], []),
        "SURVEY --seed 9": (cli_tests["SURVEY"], ["--seed", "9"]),
        "EXPLICIT_SOLVER": (cli_tests["EXPLICIT_SOLVER"], []),
        "VIOLATING --allow-hypothesis-violation": (
            cli_tests["VIOLATING"], ["--allow-hypothesis-violation"]
        ),
    }
    for kind, text in sorted(cli_tests["KIND_CONFIGS"].items()):
        out[f"KIND_CONFIGS[{kind}]"] = (text, [])
    for name in WORKLOADS:
        out[name] = (workloads.WORKLOADS[name][0].format(seed=SEED), [])
    return out


def export(ref: str, dest: Path) -> None:
    """Write the committed tree of `ref` to `dest`."""
    blob = subprocess.run(
        ["git", "-C", str(ROOT), "archive", ref], check=True, capture_output=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        tar.extractall(dest, filter="data")


def kdvgauge(src: Path, args: list) -> subprocess.CompletedProcess:
    """One `kdvgauge` process on the package under `src`, one BLAS thread;
    `src` is written as <src> in its output, where tracebacks name it, and
    the process's wall time in seconds is its `seconds`."""
    env = dict(os.environ, PYTHONPATH=str(src))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "kdvgauge.cli", *args], env=env, capture_output=True, text=True,
    )
    done.seconds = time.perf_counter() - start
    done.stdout = done.stdout.replace(str(src), "<src>")
    done.stderr = done.stderr.replace(str(src), "<src>")
    return done


def _stream_lines(done: subprocess.CompletedProcess, stream: str) -> list[str]:
    """The lines of one stream; stderr without its indented lines, the
    traceback frames and warning sources that name code locations."""
    lines = getattr(done, stream).splitlines()
    return [line for line in lines if stream == "stdout" or not line[:1].isspace()]


def check_differences(ref: subprocess.CompletedProcess, new: subprocess.CompletedProcess) -> list[str]:
    """The exit code and the stdout/stderr lines of two `check` runs that differ."""
    lines = []
    if ref.returncode != new.returncode:
        lines.append(f"check exit code {ref.returncode} -> {new.returncode}")
    for stream in ("stdout", "stderr"):
        diff = difflib.unified_diff(
            _stream_lines(ref, stream), _stream_lines(new, stream), lineterm="", n=0,
        )
        lines += [f"check {stream} {line}" for line in diff
                  if line[:1] in "+-" and line[:3] not in ("---", "+++")]
    return lines


def _cells(path: Path) -> dict:
    """(location) -> value of every CSV cell or JSON leaf of one file."""
    if path.suffix == ".json":
        flat = {}

        def walk(node, where):
            if isinstance(node, dict):
                for key, val in node.items():
                    walk(val, f"{where}.{key}")
            elif isinstance(node, list):
                for i, val in enumerate(node):
                    walk(val, f"{where}[{i}]")
            else:
                flat[where] = node

        walk(json.loads(path.read_text(encoding="utf-8")), "")
        return flat
    rows = csv.reader(io.StringIO(path.read_text(encoding="utf-8")))
    return {f"row {r} col {c}": v for r, row in enumerate(rows) for c, v in enumerate(row)}


SUMMARY_FLOOR = 1e-6  # smaller cells sit at round-off, where relative change says little


def _relative(old, new) -> float | None:
    """|new - old| / |old| of two numeric cells; None if either is not a number."""
    try:
        old, new = float(old), float(new)
    except (TypeError, ValueError):
        return None
    if old == 0.0:
        return 0.0 if new == 0.0 else float("inf")
    return abs(new - old) / abs(old)


def _change(old, new) -> str:
    rel = _relative(old, new)
    if rel is None:
        return f"{old!r} -> {new!r}"
    return f"{old} -> {new} (|change| {abs(float(new) - float(old)):.3g}, relative {rel:.3g})"


def moved_cells(ours: Path, theirs: Path) -> tuple[list[str], float | None]:
    """A line per moved cell, and the largest relative change of a moved
    numeric cell whose REF value has magnitude >= SUMMARY_FLOOR."""
    lines, rels = [], []
    names = sorted({p.name for p in ours.iterdir()} | {p.name for p in theirs.iterdir()})
    for name in names:
        a, b = theirs / name, ours / name
        if not (a.exists() and b.exists()):
            lines.append(f"{name}: only in {'REF' if a.exists() else 'working tree'}")
            continue
        if a.read_bytes() == b.read_bytes():
            continue
        old, new = _cells(a), _cells(b)
        for key in sorted(old.keys() | new.keys()):
            if old.get(key) != new.get(key):
                lines.append(f"{name} {key}: {_change(old.get(key), new.get(key))}")
                rel = _relative(old.get(key), new.get(key))
                if rel is not None and abs(float(old[key])) >= SUMMARY_FLOOR:
                    rels.append(rel)
    return lines, max(rels, default=None)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("ref", help="git revision to compare against, e.g. HEAD~")
    args = ap.parse_args(argv)
    moved = False
    with tempfile.TemporaryDirectory(prefix="same_outputs_") as tmp:
        tmp = Path(tmp)
        export(args.ref, tmp / "ref")
        for i, (name, (text, run_args)) in enumerate(configs().items()):
            cfg = tmp / "run.cfg"
            cfg.write_text(text, encoding="utf-8")
            out_ref, out_new = tmp / f"{i}.ref", tmp / f"{i}.new"
            run_ref = kdvgauge(tmp / "ref" / "src", ["run", str(cfg), "-o", str(out_ref), *run_args])
            run_new = kdvgauge(ROOT / "src", ["run", str(cfg), "-o", str(out_new), *run_args])
            lines, worst = [], None
            if run_ref.returncode != run_new.returncode:
                lines.append(f"exit code {run_ref.returncode} -> {run_new.returncode}")
            if out_ref.is_dir() and out_new.is_dir():
                cells, worst = moved_cells(out_new, out_ref)
                lines += cells
            elif out_ref.is_dir() != out_new.is_dir():
                lines.append("outputs written on one side only")
            lines += check_differences(
                kdvgauge(tmp / "ref" / "src", ["check", str(cfg)]),
                kdvgauge(ROOT / "src", ["check", str(cfg)]),
            )
            moved = moved or bool(lines)
            print(
                f"{name}: {'identical' if not lines else 'MOVED'} "
                f"(run {run_ref.seconds:.2f} s -> {run_new.seconds:.2f} s)",
                flush=True,
            )
            for line in lines:
                print(f"  {line}", flush=True)
            if lines:
                print(
                    f"  largest relative change (|REF value| >= {SUMMARY_FLOOR:g}): "
                    + ("none" if worst is None else f"{worst:.3g}"),
                    flush=True,
                )
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
