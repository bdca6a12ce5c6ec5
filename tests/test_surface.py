"""The documented library surface, and the engine names the benchmark trace wraps."""

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
