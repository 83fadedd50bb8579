"""Which drivers enter each function of ``src/repro``: the reachability census.

Runs every non-test driver of the library, each in a fresh interpreter
under a function-entry collector (``sys.settrace`` with no line tracing:
one ``call`` event per Python frame entered), and prints every function
defined in ``src/repro`` with the drivers that entered it.  The drivers
are the five ``examples/``, ``python -m repro figures``, each CLI
subcommand, ``run_{striped,kernels,reliability,serving}.py --quick``,
``run_chaos.py`` and ``benchmarks/e2e/run.py --workload all --smoke``.

The census reads ``src/repro`` once before the drivers run, and each
driver imports it as it is when that driver starts, so an edit during the
run would make the edited file's functions look unreached.  Every parsed
file is hashed when it is read and again after the last driver; on a
difference the run exits 2 naming the changed files, with no census.

A function no driver enters must be deleted or be listed in ``KEPT``
below, which is the one record of what stays and why.  ``--check`` also
fails on a ``KEPT`` entry that is gone or that a driver now enters, so
the list stays exact.  Each entry names one of the census reasons:

* ``a`` yardstick target: ``benchmarks/e2e/layers.py`` wraps it by name;
* ``b`` fault, error or validation path;
* ``c`` oracle: tests check other code against it;
* ``d`` test hook;
* ``e`` a ``__repr__`` / ``__str__``, an abstract method or a null-object no-op;
* ``f`` reached by a named driver that is not in the quick list.

Usage::

    python benchmarks/reach.py                 # the census table (~2.5 min)
    python benchmarks/reach.py --check         # exit 1 when the run and KEPT disagree
                                               # (exit 2: src/repro changed during the run)
    python benchmarks/reach.py --tests --out reach.json   # add a tier-1 column (test-only vs nothing)

The drivers run in a temporary directory and write their outputs there;
nothing is written into the repository unless ``--out`` names a path in
it.  Subprocesses a driver starts are not seen by the collector.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import json
import os
import pathlib
import random
import subprocess
import sys
import tempfile
import time

REPO = pathlib.Path(__file__).resolve().parents[1]
SRC = REPO / "src"
PACKAGE = SRC / "repro"

#: Runs one driver in this interpreter under the collector, then writes
#: the ``(file, first line, name)`` of every code object entered as JSON.
#: argv: ``OUT module|path TARGET ARGS...``.
CHILD = r"""
import json, os, runpy, sys, threading
entered = set()
def _enter(frame, event, arg):
    code = frame.f_code
    entered.add((code.co_filename, code.co_firstlineno, code.co_name))
out, kind, target, *args = sys.argv[1:]
sys.argv = [target, *args]
status = 0
threading.settrace(_enter)
sys.settrace(_enter)
try:
    if kind == "module":
        runpy.run_module(target, run_name="__main__", alter_sys=True)
    else:
        sys.path[0] = os.path.dirname(target)  # as `python SCRIPT` puts it first
        runpy.run_path(target, run_name="__main__")
except SystemExit as exc:
    status = exc.code
finally:
    sys.settrace(None)
    threading.settrace(None)
    with open(out, "w") as fh:
        json.dump(sorted(entered), fh)
sys.exit(status)
"""


def _cli(*args: str) -> list[tuple[str, ...]]:
    return [("module", "repro", *args)]


def _script(path: str, *args: str) -> list[tuple[str, ...]]:
    return [("path", str(REPO / path), *args)]


#: Driver name -> the runs it is made of.  ``{tmp}`` is the driver's
#: scratch directory; ``("unlink", path)`` deletes a file between runs.
DRIVERS: dict[str, list[tuple[str, ...]]] = {
    **{f"examples/{p.name}": _script(f"examples/{p.name}") for p in sorted((REPO / "examples").glob("*.py"))},
    "figures": _cli("figures"),
    "cli-info": _cli("info"),
    "cli-analyze": _cli("analyze"),
    "cli-stats": _cli("stats"),
    "cli-metrics": _cli("metrics"),
    "cli-trace-striped": _cli("trace", "striped", "--out", "{tmp}/striped.json"),
    "cli-trace-mapreduce": _cli("trace", "mapreduce", "--out", "{tmp}/mapreduce.json"),
    "cli-serve": _cli(
        "serve", "--chaos", "--flash-crowd", "--clients", "200", "--think", "0.1", "--trace", "{tmp}/serve.json"
    ),
    "cli-encode-repair-decode": [
        *_cli("encode", "{tmp}/input.bin", "{tmp}/blocks", "--code", "galloper"),
        ("unlink", "{tmp}/blocks/block_000.bin"),
        *_cli("repair", "{tmp}/blocks", "0"),
        *_cli("decode", "{tmp}/blocks", "{tmp}/output.bin"),
    ],
    "run_striped.py": _script("benchmarks/run_striped.py", "--quick", "--out", "{tmp}/striped.json"),
    "run_kernels.py": _script("benchmarks/run_kernels.py", "--quick", "--out", "{tmp}/kernels.json"),
    "run_reliability.py": _script(
        "benchmarks/run_reliability.py", "--quick", "--out", "{tmp}/reliability.json"
    ),
    "run_serving.py": _script("benchmarks/run_serving.py", "--quick", "--out", "{tmp}/serving.json"),
    "run_chaos.py": _script("benchmarks/run_chaos.py", "--out", "{tmp}/chaos.json"),
    "e2e/run.py": _script("benchmarks/e2e/run.py", "--workload", "all", "--smoke", "--out", "{tmp}/e2e.json"),
}

#: Tier-1 under the same collector: tells "entered only by tests" from
#: "entered by nothing".  It is a column of the table, never a driver.
TESTS = [("module", "pytest", "-q", "-x", "-p", "no:cacheprovider", str(REPO / "tests"))]

#: Functions no driver enters that stay, each with its census reason
#: (see the module docstring and ``docs/PERFORMANCE.md``, "Every function
#: has a driver").
KEPT: dict[str, str] = {
    # (a) yardstick targets: benchmarks/e2e/layers.py wraps them by name.
    "repro.serving.coalesce:RequestCoalescer.fail": "a",
    "repro.serving.qos:TenantThrottle.inflight": "a",
    "repro.storage.blockstore:BlockStore.read_rows": "a",
    "repro.storage.blockstore:BlockStore.timed_read_rows": "a",
    "repro.storage.filesystem:DistributedFileSystem.read_file_into": "a",
    "repro.storage.filesystem:DistributedFileSystem.read_stripes": "a",
    "repro.storage.filesystem:DistributedFileSystem.stripe_holders": "a",
    "repro.storage.filesystem:DistributedFileSystem.write_encoded": "a",
    "repro.storage.repair:RepairAdmissionController.inflight": "a",
    "repro.storage.resilient:ResilientBlockClient.get": "a",
    # (b) fault, error or validation paths.
    "repro.serving.gateway:ServingGateway._decode_fallback": "b",
    "repro.sim.aio:SimFuture.set_exception": "b",
    "repro.storage.filesystem:FileSystemError.__init__": "b",
    # (c) oracles the tests check other code against.
    "repro.core.remapping:change_basis": "c",
    "repro.core.remapping:expanded_generator": "c",
    "repro.core.remapping:verify_identity_rows": "c",
    "repro.gf.field:GF.div": "c",
    "repro.gf.field:GF.pow": "c",
    "repro.gf.kernels:mat_data_product": "c",  # Galloper's construction products are checked against it
    "repro.gf.matrix:is_invertible": "c",
    "repro.gf.matrix:matmul": "c",  # change_basis's product
    "repro.gf.matrix:rows_in_rowspace": "c",
    # (d) test hooks.
    "repro.gf.native:reset_native_backend": "d",
    "repro.obs.trace:Tracer.children_of": "d",
    "repro.obs.trace:set_tracer": "d",
    # (e) __repr__ / __str__, abstract methods and the null tracer's no-ops.
    "repro.bench.harness:Table.__str__": "e",
    "repro.cluster.placement:PlacementPolicy.place": "e",
    "repro.cluster.server:Server.__repr__": "e",
    "repro.codes.base:ErasureCode.__repr__": "e",
    "repro.codes.raid:RotatedPyramidCode.__repr__": "e",
    "repro.codes.replication:ReplicationCode.__repr__": "e",
    "repro.faults.clock:VirtualClock.__repr__": "e",
    "repro.faults.model:FaultComponent.sample": "e",
    "repro.faults.model:FaultModel.__repr__": "e",
    "repro.gf.field:GF.__repr__": "e",
    "repro.gf.kernels:CodingPlan.__repr__": "e",
    "repro.gf.native:NativeBackend.__repr__": "e",
    "repro.gf.schedule:XorSchedule.__repr__": "e",
    "repro.mapreduce.inputformat:InputFormat._block_extents": "e",
    "repro.mapreduce.records:RecordReader.records": "e",
    "repro.obs.metrics:Gauge.__repr__": "e",
    "repro.obs.metrics:Histogram.__repr__": "e",
    "repro.obs.trace:NullTracer.instant": "e",
    "repro.obs.trace:NullTracer.sim_span": "e",
    "repro.obs.trace:Span.__repr__": "e",
    "repro.obs.trace:Tracer.__repr__": "e",
    "repro.reliability.lifetime:ExponentialLifetime.__repr__": "e",
    "repro.reliability.lifetime:LifetimeModel.sample": "e",
    "repro.reliability.lifetime:WeibullLifetime.__repr__": "e",
    "repro.storage.metrics:MetricsRegistry.__repr__": "e",
    # (f) reached by a named driver outside the quick list.
    "repro.bench.experiments:ablation_construction_cost": "f",  # pytest benchmarks/test_ablations.py (nightly)
    "repro.bench.harness:Table.column": "f",  # pytest benchmarks/test_fig7_*.py
    "repro.reliability.lifetime:WeibullLifetime.infant_mortality": "f",  # run_reliability.py (full sweep)
}


def functions() -> tuple[dict[tuple[str, int, str], tuple[str, int]], dict[str, str]]:
    """``(file, first line, name)`` of every def in ``src/repro`` -> ``(module:qualname, lines)``,
    and the digest of every file parsed (:func:`digests`).

    The first line is the first decorator's, as in ``co_firstlineno``.
    """
    found, keys, hashes = {}, set(), {}
    for path in sorted(PACKAGE.rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts).removesuffix(".__init__")
        source = path.read_bytes()
        hashes[str(path)] = hashlib.sha256(source).hexdigest()
        pending = [(ast.parse(source, str(path)), "")]
        while pending:
            node, prefix = pending.pop()
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                    key = f"{module}:{prefix}{child.name}"
                    if key in keys:  # a property setter, or a def per branch of an if
                        key = f"{key}@{first}"
                    keys.add(key)
                    found[(str(path), first, child.name)] = (key, child.end_lineno - first + 1)
                    pending.append((child, f"{prefix}{child.name}."))
                elif isinstance(child, ast.ClassDef):
                    pending.append((child, f"{prefix}{child.name}."))
                else:
                    pending.append((child, prefix))
    return found, hashes


def digests() -> dict[str, str]:
    """Path -> SHA-256 of every ``.py`` file under ``src/repro``."""
    return {str(path): hashlib.sha256(path.read_bytes()).hexdigest() for path in sorted(PACKAGE.rglob("*.py"))}


def changed_files(before: dict[str, str], after: dict[str, str]) -> list[str]:
    """The files added, removed or edited between two :func:`digests`."""
    return sorted(path for path in before.keys() | after.keys() if before.get(path) != after.get(path))


def _run(runs: list[tuple[str, ...]], tmp: pathlib.Path, env: dict[str, str]) -> set[tuple[str, int, str]]:
    entered: set[tuple[str, int, str]] = set()
    for i, (kind, target, *args) in enumerate(runs):
        target, *args = (a.replace("{tmp}", str(tmp)) for a in (target, *args))
        if kind == "unlink":
            pathlib.Path(target).unlink()
            continue
        out = tmp / f"entered-{i}.json"
        proc = subprocess.run(
            [sys.executable, "-c", CHILD, str(out), kind, target, *args],
            cwd=tmp, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        if proc.returncode != 0 or not out.exists():
            raise RuntimeError(f"{target} {' '.join(args)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
        entered.update((str(pathlib.Path(f).resolve()), line, name) for f, line, name in json.loads(out.read_text()))
    return entered


def census(tests: bool) -> tuple[dict[str, dict], list[str]]:
    """``module:qualname`` -> ``{"lines", "drivers", "tests"}`` over every driver,
    and the files under ``src/repro`` that changed while the drivers ran."""
    index, hashes = functions()
    table = {key: {"lines": lines, "drivers": [], "tests": False} for key, lines in index.values()}
    plan = [*DRIVERS.items()] + ([("tests", TESTS)] if tests else [])
    with tempfile.TemporaryDirectory(prefix="reach-") as root:
        root = pathlib.Path(root)
        # The repository root is on the path for tier-1's ``from tests.conftest import ...``.
        env = {**os.environ, "PYTHONPATH": f"{SRC}{os.pathsep}{REPO}", "PYTHONDONTWRITEBYTECODE": "1"}
        # One native build for every driver (the e2e harness would put its own in the repository).
        env.setdefault("REPRO_NATIVE_CACHE", str(root / "native"))
        for i, (name, runs) in enumerate(plan):
            start = time.perf_counter()
            tmp = root / str(i)
            tmp.mkdir()
            (tmp / "input.bin").write_bytes(random.Random(0).randbytes(300_000))
            hits = [index[code] for code in _run(runs, tmp, env) if code in index]
            for key, _ in hits:
                if name == "tests":
                    table[key]["tests"] = True
                else:
                    table[key]["drivers"].append(name)
            print(f"  {name}: {len(hits)} functions, {time.perf_counter() - start:.1f} s", file=sys.stderr)
    return table, changed_files(hashes, digests())


def report(table: dict[str, dict], tests: bool) -> list[str]:
    """Print the census; return where it and ``KEPT`` disagree.

    That is every unreached function ``KEPT`` does not list, and every
    ``KEPT`` entry that is gone from ``src/repro`` or now has a driver.
    """
    reached = [key for key, row in table.items() if row["drivers"]]
    unreached = sorted(key for key, row in table.items() if not row["drivers"])
    for key in sorted(table):
        row = table[key]
        print(f"{key}  ({row['lines']} lines): {', '.join(row['drivers']) or '-'}")
    print()
    print(f"{len(reached)} of {len(table)} functions entered by a driver; {len(unreached)} not:")
    for key in unreached:
        row = table[key]
        where = ("tests" if row["tests"] else "nothing") if tests else "no driver"
        print(f"  {key}  {row['lines']} lines, entered by {where}, kept: {KEPT.get(key, '-')}")
    if tests:
        only = [key for key in unreached if table[key]["tests"]]
        print(
            f"test-only: {len(only)} ({sum(table[k]['lines'] for k in only)} lines); "
            f"nothing: {len(unreached) - len(only)} "
            f"({sum(table[k]['lines'] for k in unreached if k not in only)} lines)"
        )
    unlisted = [f"{key}: no driver enters it and KEPT does not list it" for key in unreached if key not in KEPT]
    stale = [
        f"{key}: KEPT lists it but it is gone or now has a driver"
        for key in sorted(KEPT)
        if key not in table or table[key]["drivers"]
    ]
    return unlisted + stale


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help="exit 1 when the run and KEPT disagree")
    parser.add_argument("--tests", action="store_true", help="also run tier-1 under the collector")
    parser.add_argument("--out", type=pathlib.Path, help="write the census as JSON to this path")
    args = parser.parse_args(argv)
    table, changed = census(args.tests)
    if changed:
        print(
            f"error: {', '.join(changed)} changed while the drivers ran, so the census would "
            "be wrong; rerun it on a tree nobody is editing",
            file=sys.stderr,
        )
        return 2
    mismatches = report(table, args.tests)
    if args.out:
        args.out.write_text(json.dumps({"drivers": list(DRIVERS), "functions": table}, indent=1, sort_keys=True) + "\n")
    for line in mismatches:
        print(f"{'FAIL' if args.check else 'note'}: {line}", file=sys.stderr)
    return 1 if args.check and mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
