"""Package boundaries: modules, and the shared test oracles, reach each
other only through public names, importing the package loads no process
machinery and no numpy.fft, every function the benchmark tracer wraps
still exists and records its spans, the package reads the clock in one
function, and every exported name has a reader."""

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

from z2schur import reproduce

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "z2schur"
HELPERS = Path(__file__).resolve().parent / "helpers.py"
TRACING = PACKAGE.parent.parent / "perfbench" / "tracing.py"


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _crossings(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    modules = set()  # local names bound to sibling modules
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            internal = node.level > 0 or (node.module or "").startswith("z2schur")
            if not internal:
                continue
            for alias in node.names:
                if node.module in (None, "z2schur"):
                    modules.add(alias.asname or alias.name)
                elif _private(alias.name):
                    found.append(f"{path.name}:{node.lineno} imports {alias.name}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("z2schur."):
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and _private(node.attr)
                and isinstance(node.value, ast.Name) and node.value.id in modules):
            found.append(f"{path.name}:{node.lineno} reads {node.value.id}.{node.attr}")
    return found


def test_no_module_reaches_into_another_private_name():
    # The shared test oracles too: they read the library through its
    # public names only.
    files = sorted(PACKAGE.glob("*.py"))
    assert len(files) >= 9
    assert [c for f in [*files, HELPERS] for c in _crossings(f)] == []


def test_scan_flags_a_private_crossing(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("from .orbits import _hidden, public\n"
                   "from . import orbits as ob\n"
                   "x = ob._other\n")
    assert _crossings(bad) == ["bad.py:1 imports _hidden", "bad.py:3 reads ob._other"]


def loaded_after_import(modules):
    """Which of the named modules a fresh interpreter holds after
    `import z2schur`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    code = f"import sys, z2schur; print(sorted(m for m in {modules!r} if m in sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return out.strip()


def test_import_starts_no_process_machinery():
    assert loaded_after_import(("multiprocessing", "concurrent.futures.process")) == "[]"


def test_import_leaves_numpy_fft_unloaded():
    """autocorr reaches numpy.fft on first use, so set-up does not pay for it."""
    assert loaded_after_import(("numpy.fft",)) == "[]"


def _tracer_targets():
    """The (module, attribute) pairs that the benchmark tracer wraps."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing, [(module, attr) for module, attr, *_ in tracing.SPANNED + tracing.COUNTED]


def test_tracer_targets_exist_and_are_restored():
    """`perfbench/run.py --trace 1` and `--smoke` wrap these functions by
    name and break when one is renamed or removed."""
    tracing, targets = _tracer_targets()
    missing = [f"{m.__name__}.{a}" for m, a in targets if not hasattr(m, a)]
    assert missing == []
    originals = [getattr(m, a) for m, a in targets]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = [getattr(m, a) for m, a in targets]
    finally:
        tracer.remove()
    assert all(w is not o for w, o in zip(wrapped, originals))
    assert [getattr(m, a) for m, a in targets] == originals


def test_tracer_spans_every_criterion_in_order():
    """run_all calls each criterion through the module attribute the
    tracer wraps: one reproduce.cNN span per criterion, in table order."""
    tracing, _ = _tracer_targets()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.pass_id = 0
        outcome = reproduce.run_all(4)
    finally:
        tracer.remove()
    spans = [s[0] for s in tracer.spans if s[0].startswith("reproduce.c")]
    assert [r.number for r in outcome["criteria"]] == list(range(1, 13))
    assert spans == [f"reproduce.c{r.number:02d}" for r in outcome["criteria"]]


def _clock_reads(path: Path) -> list[tuple[str | None, int]]:
    """(enclosing function, line) of every perf_counter the module reads,
    as `time.perf_counter` or as a bare name."""
    reads = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if "perf_counter" in (getattr(child, "attr", None), getattr(child, "id", None)):
                reads.append((function, child.lineno))
            visit(child, function)

    visit(ast.parse(path.read_text()), None)
    return reads


def test_reproduce_reads_the_clock_only_in_timed():
    """The package has one clock: its only perf_counter reads are the two
    in clock.timed, which reproduce and the circulant search call."""
    reads = [(path.name, *read) for path in sorted(PACKAGE.glob("*.py"))
             for read in _clock_reads(path)]
    assert len(reads) == 2 and [r for r in reads if r[:2] != ("clock.py", "timed")] == []


# Exported with no reader in src/, each for a stated reason.
EXPORT_ALLOWLIST = {
    "enumerate_orbits": "the at-scale oracle of classify, with every orbit's size",
    "spartition_axiom_check": "the oracle that the S-ring criterion will stand on",
    "orbit_product_decomposition": "a refuted claim, kept until a criterion pins it",
}


def _exports() -> dict[str, str]:
    """Each name that __init__ re-exports, with the module it comes from."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.asname or alias.name: node.module for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names}


def _read_names(path: Path) -> set[str]:
    """Every name the module reads as a bare name or an attribute; a
    definition binds its name without reading it, and docstrings are
    strings, not names."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, (ast.Name, ast.Attribute))}


def test_every_export_has_a_reader():
    """An exported name is read somewhere in src/ besides its own
    definition and the re-export, or the benchmark tracer wraps it, or it
    is allowlisted with its reason."""
    read = set().union(*(_read_names(p) for p in PACKAGE.glob("*.py")
                         if p.name != "__init__.py"))
    traced = {attr for _, attr in _tracer_targets()[1]}
    unread = sorted(name for name in _exports()
                    if name not in read | traced | EXPORT_ALLOWLIST.keys())
    assert unread == []
    assert set(EXPORT_ALLOWLIST) <= _exports().keys() - read - traced
