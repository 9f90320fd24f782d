"""Repository hygiene: everything compiles, examples are wired right.

Cheap whole-repo guards: every Python file (library, tests,
benchmarks, examples) byte-compiles; every example is an executable
script with a ``main``; the public API surface in ``__all__`` actually
resolves; the benchmark files referenced by the experiment registry
exist on disk; the docs and CI name only live `repro` subcommands
and options; no library module imports a name it never uses.
"""

import ast
import pathlib
import py_compile
import re

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

ALL_PY = sorted(
    p for d in ("src", "tests", "benchmarks", "examples")
    for p in (REPO_ROOT / d).rglob("*.py"))

EXAMPLES = sorted((REPO_ROOT / "examples").glob("*.py"))

#: Where a reader copies `repro` command lines from.  History files
#: (CHANGES.md, CHANGELOG.md, ROADMAP.md) may name retired commands.
COMMAND_SOURCES = sorted(
    [REPO_ROOT / name for name in (
        "README.md", "DESIGN.md", "EXPERIMENTS.md", "CONTRIBUTING.md",
        ".github/workflows/ci.yml")]
    + list((REPO_ROOT / "docs").glob("*.md")) + EXAMPLES)


def _fenced_blocks(text: str) -> list:
    """The bodies of the ```-fenced code blocks in a markdown text."""
    return re.findall(r"^[ \t]*```[^\n]*\n(.*?)^[ \t]*```", text,
                      re.M | re.S)


def _subcommands(parser) -> dict:
    """``{name: subparser}`` of an argparse parser (empty if none)."""
    import argparse
    return {name: sub
            for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
            for name, sub in action.choices.items()}


class TestCompilation:
    @pytest.mark.parametrize("path", ALL_PY,
                             ids=[str(p.relative_to(REPO_ROOT))
                                  for p in ALL_PY])
    def test_file_compiles(self, path, tmp_path):
        py_compile.compile(str(path),
                           cfile=str(tmp_path / "out.pyc"),
                           doraise=True)


def _unused_imports(path: pathlib.Path) -> list:
    """Names ``path`` imports and never reads.

    An identifier inside a string constant counts as read, for quoted
    annotations and ``__all__``; ``__future__`` imports are skipped.
    """
    tree = ast.parse(path.read_text())
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Constant)
              and isinstance(node.value, str)):
            used.update(re.findall(r"[A-Za-z_]\w*", node.value))
    return [f"{path.relative_to(REPO_ROOT)}:{line}: {name}"
            for name, line in sorted(imported.items()) if name not in used]


class TestUnusedImports:
    def test_every_library_import_is_used(self):
        # Package __init__ modules import names to re-export them.
        unused = [entry for path in sorted((REPO_ROOT / "src").rglob("*.py"))
                  if path.name != "__init__.py"
                  for entry in _unused_imports(path)]
        assert not unused, unused


class TestExamples:
    def test_at_least_six_examples(self):
        assert len(EXAMPLES) >= 6

    @pytest.mark.parametrize("path", EXAMPLES,
                             ids=[p.name for p in EXAMPLES])
    def test_example_structure(self, path):
        source = path.read_text()
        assert source.startswith("#!/usr/bin/env python3"), path.name
        assert "def main()" in source, path.name
        assert '__name__ == "__main__"' in source, path.name
        assert '"""' in source.split("\n", 2)[1], \
            f"{path.name} needs a module docstring"


class TestPublicApi:
    def test_all_names_resolve(self):
        import repro
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_subpackage_alls_resolve(self):
        import importlib
        import pkgutil
        import repro
        packages = [info.name for info in pkgutil.walk_packages(
            repro.__path__, prefix="repro.") if info.ispkg]
        assert "repro.core" in packages
        for package in packages:
            module = importlib.import_module(package)
            for name in getattr(module, "__all__", []):
                assert hasattr(module, name), f"{package}.{name}"

    def test_version_string(self):
        import repro
        parts = repro.__version__.split(".")
        assert len(parts) == 3
        assert all(p.isdigit() for p in parts)


class TestRegistryFilesExist:
    def test_registry_benchmarks_exist(self):
        from repro.experiments.registry import EXPERIMENTS
        for info in EXPERIMENTS:
            assert (REPO_ROOT / info.benchmark).exists(), info.benchmark

    def test_registry_modules_importable(self):
        import importlib
        from repro.experiments.registry import EXPERIMENTS
        for info in EXPERIMENTS:
            for module in info.modules:
                importlib.import_module(module)


class TestDocumentation:
    def test_required_docs_exist(self):
        for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md"):
            assert (REPO_ROOT / name).stat().st_size > 1000, name

    def test_design_covers_every_experiment(self):
        design = (REPO_ROOT / "DESIGN.md").read_text()
        from repro.experiments.registry import EXPERIMENTS
        for info in EXPERIMENTS:
            assert info.benchmark.split("/")[-1] in design, \
                info.experiment_id

    def test_every_public_module_has_docstring(self):
        import importlib
        for path in (REPO_ROOT / "src" / "repro").rglob("*.py"):
            rel = path.relative_to(REPO_ROOT / "src")
            module_name = str(rel.with_suffix("")).replace("/", ".")
            module_name = module_name.replace(".__init__", "")
            module = importlib.import_module(module_name)
            assert module.__doc__, module_name

    def test_docs_and_ci_name_only_live_subcommands(self):
        # `python -m repro <sub>` and `` `repro <sub> `` anywhere, and
        # a line of a fenced code block that starts with `repro <sub>`.
        from repro.cli import build_parser
        live = set(_subcommands(build_parser()))
        pattern = re.compile(
            r"(?:python -m repro|`repro)\s+([a-z][a-z0-9-]*)")
        fenced = re.compile(r"^[ \t]*repro[ \t]+([a-z][a-z0-9-]*)", re.M)
        stale = []
        for path in COMMAND_SOURCES:
            text = path.read_text()
            words = pattern.findall(text) + [
                word for block in _fenced_blocks(text)
                for word in fenced.findall(block)]
            stale += [f"{path.relative_to(REPO_ROOT)}: repro {word}"
                      for word in words if word not in live]
        assert not stale, stale

    def test_docs_and_ci_name_only_live_options(self):
        # Every --long-option after `python -m repro <sub>` on one
        # command line (a trailing backslash continues it) must be an
        # option of that subcommand's parser; `trace` is resolved to
        # its nested subcommand.  A pipe, backtick, `;`, `&` or ` #`
        # ends the command.
        from repro.cli import build_parser
        commands = _subcommands(build_parser())
        command = re.compile(r"python -m repro\s+([a-z][a-z0-9-]*)(.*)")
        stale = []
        for path in COMMAND_SOURCES:
            text = re.sub(r"\\[ \t]*\n", " ", path.read_text())
            for line in text.splitlines():
                for name, rest in command.findall(line):
                    rest = re.split(r"[`|;&]|\s#", rest)[0]
                    parser = commands.get(name)
                    if parser is None:
                        continue  # the subcommand guard reports it
                    nested = _subcommands(parser)
                    if nested:
                        words = rest.split()
                        if not words or words[0] not in nested:
                            continue
                        name = f"{name} {words[0]}"
                        parser = nested[words[0]]
                    live = {option for action in parser._actions
                            for option in action.option_strings}
                    stale += [
                        f"{path.relative_to(REPO_ROOT)}: repro {name} "
                        f"{option}"
                        for option in re.findall(
                            r"(?<![\w-])--[a-z][a-z0-9-]*", rest)
                        if option not in live]
        assert not stale, stale


class TestSaltGuard:
    """The cache salt is derived from the package source, so an edit
    to any package that shapes what a cached session computes changes
    it."""

    #: Packages whose code changes a session's summary for an
    #: unchanged spec.
    SESSION_PACKAGES = ("sim", "core", "power", "graphics", "apps",
                        "display", "governors", "pipeline", "inputs",
                        "traces", "faults")

    def test_every_session_package_is_watched(self, tmp_path):
        import shutil

        from repro.cache import CODE_REV_SALT, _source_salt
        package = REPO_ROOT / "src" / "repro"
        copy = tmp_path / "repro"
        shutil.copytree(package, copy,
                        ignore=shutil.ignore_patterns("__pycache__"))
        assert _source_salt(copy) == CODE_REV_SALT
        for name in self.SESSION_PACKAGES:
            init = copy / name / "__init__.py"
            original = init.read_bytes()
            init.write_bytes(original + b"\n")
            assert _source_salt(copy) != CODE_REV_SALT, name
            init.write_bytes(original)
