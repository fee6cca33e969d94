"""The package is what the command line reaches.

An AST name graph over ``src/grassdesign``: every function, class and
method is a node, and a node reaches each def whose name its body reads,
as a plain name or as an attribute, whatever the object.  Dunder
methods are the exception: Python calls them by their class's protocol,
so a reached class reaches them and no name does.  The roots are
``cli.main`` and all module-level code, class bodies outside their
methods included; imports bind names but read none, so the exports of
``__init__`` reach nothing.  Matching by name alone can only over-reach,
so a def the graph leaves out is one that no run of the command line
can enter.

Every def must be reached from those roots or from an entry of
``KEEP``, the library surface the command line does not use, each with
its reason.  Checks that moved out of the package live under ``tests/``
(``exact_oracles.py``, ``seeded_configs.py``).
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "grassdesign"

ROOT = "cli.main"

# Unreached defs that stay in the package, by qualified name, each with
# its reason.  Their callees count as reached too: ``_ordered_counts``,
# ``_float_copies`` and ``ZonalPolynomial.from_expansion``.
KEEP = {
    "grassmann.SubspaceConfiguration.angle_classes": "the benchmark in perfbench/ reads and traces it",
    "grassmann.SubspaceConfiguration.to_float": "the library's way to float mode for exact sets with irrational angles",
    "scalars.ExactComplex.from_str": "the text codec of ExactComplex, which the benchmark reads",
    "zonal.zonal_column": "closed form the benchmark checks each column kernel against",
    "zonal.zonal_row": "closed form the benchmark checks each row kernel against",
    "zonal.zonal_hook": "closed form the benchmark checks each hook kernel against",
}


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _reads(nodes) -> set:
    """The names that the AST nodes read, as plain names or as attributes."""
    found = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                found.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                found.add(sub.attr)
    return found


def _def_header(node) -> list:
    """The parts of a def that run where it is defined: decorators, defaults, bases and keywords."""
    parts = list(node.decorator_list)
    if isinstance(node, ast.ClassDef):
        return parts + node.bases + node.keywords
    return parts + node.args.defaults + [d for d in node.args.kw_defaults if d is not None]


def name_graph(src: Path = SRC) -> tuple:
    """``(reads, dunders, roots)`` of the package's source.

    ``reads`` maps each def's qualified name to the plain names its body
    reads, ``dunders`` each class to its dunder methods' qualified names,
    and ``roots`` holds the names that module-level code reads.
    """
    reads, dunders, roots = {}, {}, set()
    for path in sorted(src.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                roots |= _reads(_def_header(node))
                reads[f"{module}.{node.name}"] = _reads(node.body)
            elif isinstance(node, ast.ClassDef):
                roots |= _reads(_def_header(node))
                owner = f"{module}.{node.name}"
                reads[owner], dunders[owner] = set(), set()
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        roots |= _reads(_def_header(item))
                        reads[f"{owner}.{item.name}"] = _reads(item.body)
                        if _dunder(item.name):
                            dunders[owner].add(f"{owner}.{item.name}")
                    else:
                        roots |= _reads([item])
            else:
                roots |= _reads([node])
    return reads, dunders, roots


def reached(graph: tuple, starts) -> set:
    """The defs reached from the qualified names ``starts`` and from the graph's roots.

    A plain name reaches every def of that name but a dunder, which only
    its class reaches.
    """
    reads, dunders, roots = graph
    by_name = {}
    for qual in reads:
        name = qual.rsplit(".", 1)[-1]
        if not _dunder(name):
            by_name.setdefault(name, []).append(qual)
    seen = set()
    todo = [qual for name in roots for qual in by_name.get(name, ())] + list(starts)
    while todo:
        qual = todo.pop()
        if qual not in seen:
            seen.add(qual)
            todo += dunders.get(qual, ())
            todo += [q for name in reads[qual] for q in by_name.get(name, ())]
    return seen


def test_every_def_is_reached_or_kept():
    graph = name_graph()
    assert ROOT in graph[0]
    missing = set(graph[0]) - reached(graph, [ROOT, *KEEP])
    assert not missing, f"defs that neither the command line nor KEEP reaches: {sorted(missing)}"


def test_keep_entries_exist_and_are_not_reached():
    graph = name_graph()
    assert set(KEEP) <= set(graph[0]), f"KEEP names no def: {sorted(set(KEEP) - set(graph[0]))}"
    stale = set(KEEP) & reached(graph, [ROOT])
    assert not stale, f"the command line reaches these KEEP entries: {sorted(stale)}"
    assert all(reason.strip() for reason in KEEP.values())
