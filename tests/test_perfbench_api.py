"""The library code that the benchmark harness (``perfbench/``) uses still exists.

``perfbench/smoke.py`` runs the harness end to end, but only in CI, for
about a minute. These tests parse ``perfbench/*.py``, and the set-up script
that ``run.py`` keeps in ``SETUP_CODE``, and check that:

- every name imported from ``coact`` or from one of its modules resolves;
- every ``name.attr`` chain read through such a name resolves, and each
  call's keyword arguments are parameters of the library function it calls,
  directly or through ``layers.timed``;
- the attributes that the scripts read off library objects (``OBJECT_ATTRS``)
  exist on such objects, and so do the parsed ``coact detect`` flags that
  ``layers.py`` reads as ``args.<flag>``.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest
from records import dataset

from coact import cli
from coact.autodiff import Adam
from coact.em import EmConfig, run_em
from coact.graph import co_occurrence
from coact.pointprocess import SeqModelConfig, SequenceModel

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# What the scripts read off library objects, keyed by the names they give
# those objects; SYNONYMS are other names for the same kinds of object.
OBJECT_ATTRS = {
    "d": {"n_events", "sequences", "registry", "labels"},          # Dataset
    "d.registry": {"index"},                                        # AccountRegistry
    "model": {"params", "save", "history", "accounts", "config",    # SequenceModel
              "log_likelihood", "grad_log_likelihood"},
    "t": {"data", "grad"},                                          # autodiff.Tensor
    "opt": {"step"},                                                # autodiff.Adam
    "g": {"coupling", "w"},                                         # KnowledgeGraph
    "result": {"scores", "accounts"},                               # DetectionResult
}
SYNONYMS = {"trained": "model", "renamed": "model", "data": "d"}


def sources() -> list:
    """(label, syntax tree) of each perfbench script and of ``SETUP_CODE``."""
    out = []
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        out.append((path.name, tree))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
                    and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["SETUP_CODE"]):
                out.append((f"{path.name}:SETUP_CODE", ast.parse(node.value.value)))
    return out


SOURCES = sources()


def library_names(tree) -> dict:
    """Each name that ``tree`` binds by importing from ``coact``, with its object."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "coact":
                    if a.asname:
                        names[a.asname] = importlib.import_module(a.name)
                    else:
                        names["coact"] = importlib.import_module("coact")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "coact":
            module = importlib.import_module(node.module)
            for a in node.names:
                try:
                    obj = getattr(module, a.name)
                except AttributeError:  # a submodule, or no such name
                    obj = importlib.import_module(f"{node.module}.{a.name}")
                names[a.asname or a.name] = obj
    return names


def chain(node) -> list | None:
    """``[name, attr, attr, ...]`` for ``name.attr.attr``, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return [node.id, *reversed(parts)]


def test_perfbench_sources_include_the_setup_code():
    assert {label for label, _ in SOURCES} >= {"inputs.py", "layers.py", "run.py", "smoke.py",
                                               "run.py:SETUP_CODE"}


@pytest.mark.parametrize("label,tree", SOURCES, ids=[label for label, _ in SOURCES])
def test_library_names_and_call_keywords_resolve(label, tree):
    names = library_names(tree)
    if label != "smoke.py":
        assert names, f"{label} imports nothing from coact"
    for node in ast.walk(tree):
        parts = chain(node) if isinstance(node, ast.Attribute) else None
        if parts and parts[0] in names:
            obj = names[parts[0]]
            for i, attr in enumerate(parts[1:], 1):
                assert hasattr(obj, attr), f"{label}: {'.'.join(parts[:i + 1])}"
                obj = getattr(obj, attr)
        if not isinstance(node, ast.Call):
            continue
        func, args = node.func, node.args
        if isinstance(func, ast.Name) and func.id == "timed" and args:
            func, args = args[0], args[1:]
        parts = chain(func) if isinstance(func, ast.Attribute) else (
            [func.id] if isinstance(func, ast.Name) else None)
        if not (parts and parts[0] in names):
            continue
        obj = names[parts[0]]
        for attr in parts[1:]:
            obj = getattr(obj, attr)
        params = inspect.signature(obj).parameters
        if any(p.kind is p.VAR_KEYWORD for p in params.values()):
            continue
        for kw in node.keywords:
            if kw.arg is not None:
                assert kw.arg in params, f"{label}: {'.'.join(parts)}({kw.arg}=...)"


def test_object_attributes_cover_what_the_scripts_read():
    read = {}
    for label, tree in SOURCES:
        for node in ast.walk(tree):
            parts = chain(node) if isinstance(node, ast.Attribute) else None
            if not parts or SYNONYMS.get(parts[0], parts[0]) not in OBJECT_ATTRS:
                continue
            base = SYNONYMS.get(parts[0], parts[0])
            if base == "d" and parts[1:2] == ["registry"] and len(parts) > 2:
                base, parts = "d.registry", parts[1:]
            read.setdefault(base, set()).add(parts[1])
    assert read == OBJECT_ATTRS


@pytest.fixture(scope="module")
def objects():
    events = [(a, float(t)) for t, a in enumerate("abcab")]
    d = dataset([("s", events)], labels={"a": 1, "b": 0, "c": 0})
    model = SequenceModel(d.registry.keys, SeqModelConfig(d_embed=2, d_pos=0, d_time=0, n_mix=1))
    g = co_occurrence(d)
    return {"d": d, "d.registry": d.registry, "model": model, "t": model.params["E"],
            "opt": Adam(model.params), "g": g,
            "result": run_em(d, g, model, EmConfig(estep_only=True, scorer_hidden=2))}


@pytest.mark.parametrize("base", sorted(OBJECT_ATTRS))
def test_library_objects_have_the_attributes_the_scripts_read(objects, base):
    for attr in sorted(OBJECT_ATTRS[base]):
        assert hasattr(objects[base], attr), f"{base}.{attr}"


def test_the_detect_flags_that_layers_reads_exist():
    args = cli.build_parser().parse_args(["detect", "--data", "x"])
    (tree,) = [tree for label, tree in SOURCES if label == "layers.py"]
    read = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "args"}
    assert read and read <= set(vars(args)), read - set(vars(args))
