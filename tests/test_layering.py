"""The module graph runs one way and `tables` skips `polyring`, numpy loads only where type tables are built or read,
a command that builds them runs one OS thread and no module calls BLAS, no command loads
`dataclasses` or `inspect`, the command line loads `statistics` and `verify` only for the
subcommands that run them, and the names the bench tracer and the route calibration reach
by name exist."""

import ast
import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# a module may import, at module level, only modules of an earlier or the same rank;
# the package's __init__ ranks below them all, so it imports none
ORDER = {"gf": 0, "combinatorics": 0, "polyring": 1, "tables": 2, "statistics": 3, "verify": 4, "cli": 5}
# earlier modules that a module may import only inside the functions that use them
DEFERRED = {"cli": {"statistics", "verify"}}
# earlier modules that a module imports nowhere: `tables` works on codes and their base-q digits alone
SKIPPED = {"tables": {"polyring"}}


def _module_level_imports(tree):
    """Import statements that run when the module is imported (`if TYPE_CHECKING:` blocks excluded)."""
    todo = list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, ast.If) and not (isinstance(node.test, ast.Name) and node.test.id == "TYPE_CHECKING"):
            todo += node.body + node.orelse
        elif isinstance(node, ast.Try):
            todo += node.body + node.orelse + node.finalbody + [s for h in node.handlers for s in h.body]


def _imported_modules(node):
    """Top-level package names and ffstat submodules an import statement loads."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if node.module == "ffstat":  # from ffstat import gf, polyring as pr
        return [f"ffstat.{alias.name}" for alias in node.names]
    return [node.module]


def test_module_level_imports_follow_the_layer_order():
    assert sorted(ORDER) == sorted(p.stem for p in (SRC / "ffstat").glob("*.py") if p.stem != "__init__")
    for path in sorted((SRC / "ffstat").glob("*.py")):
        name = path.stem
        for node in _module_level_imports(ast.parse(path.read_text(encoding="utf-8"))):
            for target in _imported_modules(node):
                top, _, sub = target.partition(".")
                if top == "numpy":
                    assert name == "tables", f"{name} imports numpy at module level"
                dep = sub.split(".")[0]
                if top == "ffstat" and dep in ORDER:
                    assert dep != name and ORDER[dep] <= ORDER.get(name, -1), f"{name} imports the later module {dep}"
                    assert dep not in DEFERRED.get(name, ()), f"{name} imports {dep} at module level"


def test_skipped_layers_are_imported_nowhere():
    for name, skipped in SKIPPED.items():
        for node in ast.walk(ast.parse((SRC / "ffstat" / f"{name}.py").read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for target in _imported_modules(node):
                    top, _, sub = target.partition(".")
                    assert not (top == "ffstat" and sub.split(".")[0] in skipped), f"{name} imports {target}"


def test_no_module_imports_dataclasses():
    # importing dataclasses loads inspect, ast, dis and tokenize, and each decorator execs generated code;
    # the package's records are plain slotted classes (combinatorics.Record)
    for path in sorted((SRC / "ffstat").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                assert "dataclasses" not in _imported_modules(node), f"{path.stem} imports dataclasses"


# numpy routines that call BLAS; `tables` starts OpenBLAS with one thread on the grounds that none is called
BLAS_CALLS = {"dot", "matmul", "einsum", "tensordot", "inner", "outer", "vdot", "linalg"}


def test_no_module_calls_blas():
    for path in sorted((SRC / "ffstat").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            where = f"{path.stem}:{getattr(node, 'lineno', '')}"
            if isinstance(node, ast.Attribute):  # np.dot(a, b), np.linalg.norm(a), and the method a.dot(b)
                numpy_name = isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")
                assert not (node.attr in BLAS_CALLS and (numpy_name or node.attr == "dot")), f"{where} calls {node.attr}"
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [a.name if isinstance(node, ast.Import) else f"{node.module}.{a.name}" for a in node.names]
                for top, *rest in (name.split(".") for name in names):
                    assert top != "numpy" or not BLAS_CALLS & set(rest), f"{where} imports {names}"
            elif isinstance(node, (ast.BinOp, ast.AugAssign)):
                assert not isinstance(node.op, ast.MatMult), f"{where} uses the @ operator"


PROBE = """
import contextlib, io, json, os, sys
from ffstat import cli
out = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    out.append([argv[0], code, "numpy" in sys.modules, "ffstat.tables" in sys.modules,
                "dataclasses" in sys.modules, "inspect" in sys.modules])
threads = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None
print(json.dumps([out, threads]))
"""


def test_light_commands_do_not_load_numpy():
    light = [
        "pi --p 2 --k 3",
        "pi-type --p 3 --k 4 --lambda 2+1+1",
        "partition-prob --lambda 2+2",
        "totient --p 3 --D 0,0,1",
        "radical --p 2 --f 0,0,0,0,1 --m 1 --d 2",
        "hypotheses --p 5 --k 5 --m 1 --f 0,0,0,0,0,1",
        "hypotheses --p 3 --k 4 --m 2 --f 1 --D 0,1",
        "counterexample m0 --p 7 --k 3",
        "counterexample m1 --p 2 --n 1",
        # intervals are counted in the ring of principal units mod t^(k - m)
        "interval --p 2 --k 2 --m 1 --f 0,0,1",
        "nu --p 2 --f 1,0,1 --m 1",
        "nu --p 2 --nu 2 --f [1],[0],[0],[0],[0],[0],[1] --m 2 --decompose",
        # residue classes with small moduli are counted in the ring, however many members they have
        "progression --p 3 --k 3 --D 0,1 --f 1",
        "progression --p 3 --k 9 --D 2,0,1 --f 1",
        "scan-progressions --p 3 --k 5 --m 2 --lambda 5",
        "scan-progressions --p 5 --k 6 --m 3 --lambda 6",
        # every interval of degree k at once, from one ring of principal units, however many members
        "mean-variance --p 3 --k 4 --m 1",
        "variance-trend --k 5 --m 1 --q-list 2,3",
        "scan-intervals --p 3 --k 4 --m 2 --lambda 4",
        "interval --p 5 --k 5 --m 4 --f 1,2,3,4,0,1",
        "scan-intervals --p 2 --k 10 --m 2 --lambda 5+3+2",
    ]
    control = "scan-intervals --p 2 --k 12 --m 1 --lambda 12"  # 4,096 members: the scan builds and reads type tables
    argvs = [line.split() for line in light + [control]]
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(argvs)],
        capture_output=True, text=True, timeout=120, env=dict(env, PYTHONPATH=str(SRC)), check=True,
    )
    rows, threads = json.loads(proc.stdout)
    assert [row[1] for row in rows] == [0] * len(argvs)
    assert [row[2:] for row in rows[:-1]] == [[False] * 4] * len(light), rows
    assert rows[-1][2:4] == [True, True]  # numpy itself imports inspect
    if threads is not None:  # no /proc/self/task on this platform
        assert threads == 1  # OpenBLAS started no worker threads for the tables' census


def test_an_explicit_openblas_thread_count_is_kept():
    proc = subprocess.run(
        [sys.executable, "-c", "import os, ffstat.tables; print(os.environ['OPENBLAS_NUM_THREADS'])"],
        capture_output=True, text=True, timeout=60, check=True,
        env=dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="2"),
    )
    assert proc.stdout.strip() == "2"


LOADED = """
import contextlib, io, json, sys
from ffstat import cli
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(sys.argv[1:]) == 0
print(json.dumps(["ffstat.statistics" in sys.modules, "ffstat.verify" in sys.modules]))
"""


def test_cli_loads_statistics_and_verify_per_subcommand():
    # each in a fresh interpreter: [loads statistics, loads verify]
    cases = [
        ("", [False, False]),  # a bare `import ffstat.cli`
        ("pi --p 2 --k 3", [False, False]),
        ("pi-type --p 3 --k 4 --lambda 2+1+1", [False, False]),
        ("partition-prob --lambda 2+2", [False, False]),
        ("interval --p 2 --k 2 --m 1 --f 0,0,1", [True, False]),
        ("nu --p 2 --f 1,0,1 --m 1", [True, False]),
        ("totient --p 3 --D 0,0,1", [True, False]),
        ("hypotheses --p 5 --k 5 --m 1 --f 0,0,0,0,0,1", [True, True]),  # control: verify imports statistics
    ]
    for line, loaded in cases:
        proc = subprocess.run(
            [sys.executable, "-c", LOADED, *line.split()],
            capture_output=True, text=True, timeout=60, env=dict(os.environ, PYTHONPATH=str(SRC)), check=True,
        )
        assert json.loads(proc.stdout) == loaded, line


# tracer targets that do not resolve today, each timing nothing: methods and a function since deleted,
# and closed forms that combinatorics.busy_s looks up in modules that do not import them
UNRESOLVED_TRACER_TARGETS = {
    ("tables", "PolyTables.census_matrix"),
    ("tables", "PolyTables.progression_codes"),
    *((mod, "divisor_excess") for mod in ("combinatorics", "cli", "statistics", "verify")),
    ("statistics", "cycle_type_probability"),
    ("statistics", "exact_prime_count"),
    ("statistics", "exact_type_count"),
    ("verify", "exact_prime_count"),
    ("verify", "divisors"),
    ("verify", "partitions_of"),
}


def _resolves(modname, path):
    """Whether ffstat.<modname> defines `name` or `Class.name` in its own namespace, as the tracer patches it."""
    owner = importlib.import_module(f"ffstat.{modname}")
    *classes, name = path.split(".")
    for part in classes:
        owner = vars(owner).get(part)
        if owner is None:
            return False
    return name in vars(owner)


def test_tooling_names_exist():
    # perfbench/tracer.py skips a LAYERS target it cannot find, so a deleted name would silently zero its metric,
    # and it patches its table-cache lookups and PolyTables.__init__ without checking that they exist;
    # tools/route_costs.py reads statistics names in its scripts; a rename fails here, not in a traced run
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    targets = {target for targets in tracer.LAYERS.values() for target in targets}
    unresolved = {target for target in targets if not _resolves(*target)}
    assert unresolved == UNRESOLVED_TRACER_TARGETS, (unresolved - UNRESOLVED_TRACER_TARGETS, UNRESOLVED_TRACER_TARGETS - unresolved)
    for modname, name in tracer.CACHE_LOOKUPS:
        assert name in vars(importlib.import_module(f"ffstat.{modname}")), (modname, name)
    assert "__init__" in vars(importlib.import_module("ffstat.tables").PolyTables)
    statistics = importlib.import_module("ffstat.statistics")
    names = set(re.findall(r"\bst\.(\w+)", (ROOT / "tools" / "route_costs.py").read_text(encoding="utf-8")))
    assert {"ResidueRing", "ring_products", "TABLE_START_US", "RING_US_PER_PRODUCT"} <= names
    assert [name for name in sorted(names) if not hasattr(statistics, name)] == []
