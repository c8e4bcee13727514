"""Every function, class, method and module-level constant defined in ``src/jobmig`` is
named somewhere in ``src/`` or ``bench/`` besides its own definition: ``src/`` holds no
API that only tests call, and no constant that nothing reads. Dunder names and ``main``
(an entry point) are exempt."""

import argparse
import ast
from pathlib import Path
from types import SimpleNamespace

import pytest

from jobmig import harness, node

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "jobmig").glob("*.py"))
USERS = SOURCES + sorted((ROOT / "bench").rglob("*.py"))

# definitions no program code calls yet, each with the open item that gives it a caller
KNOWN_UNUSED = {"CheckpointStore.load": "ROADMAP item 2"}


def definitions(tree: ast.AST, prefix: str = ""):
    """(qualified name, name) of each function and class, nested ones included."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield prefix + node.name, node.name
            yield from definitions(node, f"{prefix}{node.name}.")
        else:
            yield from definitions(node, prefix)


def constants(tree: ast.Module):
    """The name of each constant a module assigns at its top level."""
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                yield from (n.id for n in ast.walk(target) if isinstance(n, ast.Name))


def names_used(tree: ast.AST):
    """Every identifier the code reads: variables, attributes, imports, and strings
    that are a bare identifier (a method the benchmark wraps by name, say)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            yield node.value


def names_used_in_src_or_bench() -> set[str]:
    return {name for path in USERS for name in names_used(ast.parse(path.read_text()))}


def test_every_definition_in_src_has_a_user_in_src_or_bench():
    defined = [d for path in SOURCES for d in definitions(ast.parse(path.read_text()))]
    used = names_used_in_src_or_bench()
    unused = {qualname for qualname, name in defined
              if not (name.startswith("__") and name.endswith("__")) and name != "main"
              and name not in used}
    assert unused == set(KNOWN_UNUSED)


def test_every_module_constant_in_src_is_read_in_src_or_bench():
    used = names_used_in_src_or_bench()
    unread = {f"{path.stem}.{name}" for path in SOURCES
              for name in constants(ast.parse(path.read_text()))
              if not (name.startswith("__") and name.endswith("__")) and name not in used}
    assert unread == set()


def test_every_node_option_is_one_the_wall_environment_can_pass(tmp_path, monkeypatch):
    """A node option no spawn passes is a knob nothing sets: ``_spawn``, with every
    optional setting in use, must pass each option ``jobmig.node``'s parser accepts."""
    parsers = []

    def capture(parser, argv=None):
        parsers.append(parser)
        raise SystemExit(0)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", capture)
    with pytest.raises(SystemExit):
        node.main([])
    accepted = {opt for action in parsers[0]._actions for opt in action.option_strings
                if opt.startswith("--")} - {"--help"}

    commands = []
    monkeypatch.setattr(harness.subprocess, "Popen", lambda cmd, **kw: commands.append(cmd)
                        or SimpleNamespace(stdout=[], poll=lambda: 0))
    templates = harness.default_providers()
    env = harness.WallEnvironment(templates, tmp_path,
                                  withdraw_at={templates[0].provider_id: 5})
    try:
        for template in templates:
            env._spawn(template)
    finally:
        env.listener.stop()
    assert all(t.arch_tags for t in templates)  # so --arch is passed
    assert {arg for cmd in commands for arg in cmd if arg.startswith("--")} == accepted
