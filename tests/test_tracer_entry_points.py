"""perfbench/tracer.py wraps the library entry points by name. Every name it
lists must still resolve the way its install() looks it up: as a module
attribute, or in the class's own __dict__ for ``Class.method``."""

import ast
import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"
RUN = PERFBENCH / "run.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_entry_point_resolves():
    tracer = load_tracer()
    missing = []
    for mod_name, names in tracer.ENTRY_POINTS.items():
        mod = importlib.import_module(f"ncschur.{mod_name}")
        for qual in names:
            if "." in qual:
                cls_name, meth = qual.split(".")
                cls = getattr(mod, cls_name, None)
                ok = cls is not None and callable(vars(cls).get(meth))
            else:
                ok = callable(getattr(mod, qual, None))
            if not ok:
                missing.append(f"{mod_name}.{qual}")
    assert missing == []


def test_wrapped_tables_exist():
    tracer = load_tracer()
    modules = tracer.import_all()
    assert set(modules["ncsym"]._EXPANDERS) == {"m", "p", "e", "h"}
    assert all(callable(fn) for fn in modules["verify"].SUITES.values())


def test_every_memo_table_is_a_benchmark_metric():
    # run.py imports its sibling modules, so its MEMO_TABLES is read from
    # the source rather than by executing the file
    tree = ast.parse(RUN.read_text())
    (listed,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) == "MEMO_TABLES" for t in node.targets)
    ]
    tables = load_tracer().cache_tables()
    assert sorted(set(tables) - set(listed)) == []
