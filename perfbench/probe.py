"""Machine-speed probes: fixed pieces of work, timed between ops.

The host this benchmark runs on shares its cores and its disk, and both
drift by tens of percent over tens of seconds. The probes measure that
drift. They are frozen code that does not use polymulgen, so a change to
the program under test cannot move them:

- `probe` is Python work: straight-line big-integer arithmetic like the
  compiled simulator, then tree rendering and string building like
  emission.
- `probe_files` writes, reads back and deletes a few small files, like a
  gen invocation does.

`slowdown` turns one probe of each kind into the machine's slowdown
against the nominal probe times; timings are divided by it.
"""

from __future__ import annotations

import hashlib
import random
import shutil
from pathlib import Path
from time import perf_counter

# About one probe's time on a 2-core Intel Xeon VM. Frozen: changing either
# rescales every scaled time.
NOMINAL_S = 0.0025
NOMINAL_FILES_S = 0.0015
_BIGINT_CALLS = 40
_OBJECT_ITEMS = 60


def _build_kernel():
    rng = random.Random(20210127)
    forms = ("(({x} + {y}) & M)", "({x} ^ {y})", "(({x} << 1) & M)", "({x} >> 3)",
             "({x} if ({y} & 1) else {y})", "(({x} - {y}) & M)")
    names = ["a", "b"]
    lines = ["def kernel(a, b):"]
    for i in range(300):
        expr = rng.choice(forms).format(x=rng.choice(names), y=rng.choice(names))
        lines.append(f"    n{i} = {expr}")
        names.append(f"n{i}")
    lines.append("    return " + " ^ ".join(names[-8:]))
    ns = {"M": (1 << 2048) - 1}
    exec("\n".join(lines), ns)
    return ns["kernel"], rng.getrandbits(1024), rng.getrandbits(1024)


_KERNEL, _A, _B = _build_kernel()


class _Node:
    __slots__ = ("op", "kids", "width")

    def __init__(self, op, kids, width):
        self.op = op
        self.kids = kids
        self.width = width


def _tree(depth: int, i: int) -> _Node:
    if depth == 0:
        return _Node("ref", (f"n{i}",), i % 61 + 1)
    kids = (_tree(depth - 1, 2 * i), _tree(depth - 1, 2 * i + 1))
    return _Node(("+", "^", "&")[i % 3], kids, max(k.width for k in kids) + 1)


def _render(node: _Node) -> str:
    if node.op == "ref":
        return node.kids[0]
    a, b = (_render(k) for k in node.kids)
    return f"({a} {node.op} {b})"


def _objects(n: int) -> int:
    lines = []
    table = {}
    for i in range(n):
        tree = _tree(3, i)
        table[f"n{i}"] = tree.width
        lines.append(f"  assign n{i} = {_render(tree)};")
    return len("\n".join(lines)) + len(table)


def probe() -> float:
    """Seconds for one fixed unit of Python work."""
    start = perf_counter()
    for _ in range(_BIGINT_CALLS):
        _KERNEL(_A, _B)
    _objects(_OBJECT_ITEMS)
    return perf_counter() - start


def probe_files(directory: Path) -> float:
    """Seconds to write, read back, hash and delete four 8 KB files."""
    start = perf_counter()
    directory.mkdir()
    for i in range(4):
        path = directory / f"f{i}.v"
        path.write_text("x" * 8000, encoding="utf-8")
        hashlib.sha256(path.read_bytes()).hexdigest()
    shutil.rmtree(directory)
    return perf_counter() - start


def slowdown(python_s: float, files_s: float, files_weight: float) -> float:
    """Measured over nominal probe time, the file probe weighted by files_weight."""
    return ((python_s + files_weight * files_s)
            / (NOMINAL_S + files_weight * NOMINAL_FILES_S))
