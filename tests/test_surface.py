"""The documented library surface, the engine names the benchmark trace
wraps, and no dead imports or trace-only functions in the engine."""

import ast
import glob
import os
import re
import types

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


# functions the benchmark trace wraps that nothing in the engine uses, and why they stay
UNUSED_TRACED = {
    "alpha_log_bisection": "dead solver helper; ROADMAP item 1 deletes it with the next benchmark change",
    "bisect_sign_change": "dead solver helper, used only by alpha_log_bisection; ROADMAP item 1",
    "golden_section_min": "dead solver helper; ROADMAP item 1",
    "nonlinear_values": "dead ConvexProgram method; ROADMAP item 1",
    "perspective_value": "the scalar reference tests compare the compiled term pass against",
    "perspective_gradient": "the scalar reference tests compare the compiled gradients against",
}


def engine_references() -> set:
    """Every name and attribute `src/ehcoop` reads, outside a function of that name."""
    refs = set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside = inside | {node.name}
        elif isinstance(node, ast.Name) and node.id not in inside:
            refs.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in inside:
            refs.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    for path in glob.glob(os.path.join(ROOT, "src", "ehcoop", "*.py")):
        with open(path) as fh:
            visit(ast.parse(fh.read(), path), frozenset())
    return refs


def test_every_traced_engine_function_is_used_by_the_engine(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    from tracing import TARGETS

    def module_of(owner):
        return owner.__name__ if isinstance(owner, types.ModuleType) else owner.__module__

    traced = {attr for owner, attr, _ in TARGETS if module_of(owner).startswith("ehcoop")}
    assert set(UNUSED_TRACED) <= traced
    assert sorted(traced - engine_references() - set(UNUSED_TRACED)) == []


def module_tree(name: str):
    path = os.path.join(ROOT, "src", "ehcoop", f"{name}.py")
    with open(path) as fh:
        return ast.parse(fh.read(), path)


def test_quadratic_imports_nothing_from_barrier():
    imported = set()
    for node in ast.walk(module_tree("quadratic")):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported |= {alias.name for alias in node.names if node.module is None}
        elif isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
    assert imported and not {m for m in imported if m.rsplit(".", 1)[-1] == "barrier"}


def test_barrier_stack_wraps_the_program_stack():
    # the stacked term pass (placement matrices, logs, factors) lives in
    # program.ProgramStack alone; nb's _Stack wraps it
    tree = module_tree("barrier")
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    names |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    assert "log1p" not in names and "log" in names        # the barrier's own logs stay
    stack = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "_Stack")
    calls = {n.func.id for n in ast.walk(stack) if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)}
    assert "ProgramStack" in calls
    assigned = {t.attr for n in ast.walk(stack) if isinstance(n, ast.Assign)
                for t in n.targets if isinstance(t, ast.Attribute)}
    assert not assigned & {"R", "P", "C", "W", "gamma", "coeff"}
