"""The documented library surface, the engine names the benchmark trace
wraps, and no dead imports in the engine."""

import ast
import glob
import os
import re

import ehcoop

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def readme_python_block() -> str:
    with open(os.path.join(ROOT, "README.md")) as fh:
        blocks = re.findall(r"```python\n(.*?)```", fh.read(), re.S)
    assert len(blocks) == 1
    return blocks[0]


def test_readme_library_example_runs_on_the_exported_names(capsys):
    code = readme_python_block()
    imported = re.search(r"from ehcoop import \((.*?)\)", code, re.S).group(1)
    assert {name.strip() for name in imported.split(",")} <= set(ehcoop.__all__)
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out
    assert all(hasattr(ehcoop, name) for name in ehcoop.__all__)


def test_benchmark_trace_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    from tracing import TARGETS, Tracer

    tracer = Tracer()
    try:
        tracer.install()   # a name missing from the engine raises KeyError here
        assert len(tracer._patched) >= len(TARGETS)
    finally:
        tracer.uninstall()
    # every wrapped attribute is the engine's own function again
    for owner, attr, _ in TARGETS:
        assert "<locals>" not in getattr(owner, attr).__qualname__


def test_every_module_level_import_is_used():
    unused = []
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "ehcoop", "*.py"))):
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                used |= set(ast.literal_eval(node.value))   # re-exports
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        unused.append(f"{os.path.basename(path)}: {name}")
    assert not unused
