"""Meta-tests keeping the documentation honest.

DESIGN.md's experiment index must point at bench modules that exist;
README's example table must list scripts that exist; every public module
needs a docstring; package ``__all__`` lists must resolve.
"""

from __future__ import annotations

import importlib
import pathlib
import re

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent


class TestDesignIndex:
    def test_every_bench_target_exists(self):
        text = (REPO / "DESIGN.md").read_text()
        targets = set(re.findall(r"`benchmarks/(bench_\w+\.py)`", text))
        assert targets, "DESIGN.md lists no bench targets?"
        for target in targets:
            assert (REPO / "benchmarks" / target).exists(), target

    def test_every_bench_module_is_indexed(self):
        text = (REPO / "DESIGN.md").read_text()
        on_disk = {p.name for p in (REPO / "benchmarks").glob("bench_*.py")}
        indexed = set(re.findall(r"`benchmarks/(bench_\w+\.py)`", text))
        assert on_disk <= indexed, f"unindexed benches: {on_disk - indexed}"

    def test_inventory_modules_exist(self):
        text = (REPO / "DESIGN.md").read_text()
        modules = set(re.findall(r"`(repro(?:\.\w+)+)`", text))
        for module in modules:
            importlib.import_module(module)


class TestReadme:
    def test_examples_exist(self):
        text = (REPO / "README.md").read_text()
        examples = set(re.findall(r"`examples/(\w+\.py)`", text))
        assert len(examples) >= 5
        for ex in examples:
            assert (REPO / "examples" / ex).exists(), ex

    def test_all_examples_are_listed(self):
        text = (REPO / "README.md").read_text()
        on_disk = {p.name for p in (REPO / "examples").glob("*.py")}
        listed = set(re.findall(r"`examples/(\w+\.py)`", text))
        assert on_disk <= listed, f"unlisted examples: {on_disk - listed}"

    def test_doc_files_exist(self):
        for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md", "LICENSE"):
            assert (REPO / name).exists(), name


class TestPublicApiHygiene:
    PACKAGES = [
        "repro",
        "repro.analyze",
        "repro.core",
        "repro.apps",
        "repro.deployment",
        "repro.scenario",
        "repro.simulator",
        "repro.runtime",
    ]

    @pytest.mark.parametrize("package", PACKAGES)
    def test_all_exports_resolve(self, package):
        mod = importlib.import_module(package)
        for name in mod.__all__:
            assert hasattr(mod, name), f"{package}.{name}"

    @pytest.mark.parametrize("package", PACKAGES)
    def test_all_sorted(self, package):
        mod = importlib.import_module(package)
        assert list(mod.__all__) == sorted(mod.__all__), package

    def test_every_module_has_docstring(self):
        for path in (REPO / "src" / "repro").rglob("*.py"):
            module = (
                str(path.relative_to(REPO / "src"))
                .replace("/", ".")
                .removesuffix(".py")
                .removesuffix(".__init__")
            )
            mod = importlib.import_module(module)
            assert mod.__doc__ and len(mod.__doc__.strip()) > 40, module

    def test_public_classes_have_docstrings(self):
        import inspect

        for package in self.PACKAGES:
            mod = importlib.import_module(package)
            for name in mod.__all__:
                obj = getattr(mod, name)
                if inspect.isclass(obj) or inspect.isfunction(obj):
                    assert obj.__doc__, f"{package}.{name} lacks a docstring"


class TestAnalyzeDocs:
    def test_analyze_documented_everywhere(self):
        """The analytics pipeline is documented in all three doc files."""
        design = (REPO / "DESIGN.md").read_text()
        assert "## 15. Campaign analytics (`repro.analyze`)" in design
        for name in ("README.md", "EXPERIMENTS.md"):
            text = (REPO / name).read_text()
            assert "python -m repro analyze" in text, name

    def test_golden_fixture_regen_hint_is_accurate(self):
        """DESIGN.md's regen command points at a real entry point."""
        design = (REPO / "DESIGN.md").read_text()
        assert "python tests/test_analyze_golden.py --regen" in design
        golden = (REPO / "tests" / "test_analyze_golden.py").read_text()
        assert '"--regen"' in golden


class TestReadmeSnippets:
    def test_python_blocks_execute(self):
        """Every ```python block in the README must run as written."""
        text = (REPO / "README.md").read_text()
        blocks, cur, in_block = [], [], False
        for line in text.splitlines():
            if line.startswith("```python"):
                in_block, cur = True, []
                continue
            if line.startswith("```") and in_block:
                in_block = False
                blocks.append("\n".join(cur))
                continue
            if in_block:
                cur.append(line)
        assert len(blocks) >= 2
        namespace: dict = {}
        for block in blocks:
            exec(block, namespace)  # noqa: S102 - the docs are the fixture
        # the quickstart's documented outputs hold
        assert namespace["report"].regions == 2
        assert namespace["report"].correct is True


class TestNoSelfCheckHarness:
    def test_no_doc_or_module_mentions_the_removed_flag(self):
        """Acceptance checks run in pytest; the removed harness flag is not
        documented, parsed or mentioned in a CLI docstring."""
        flag = "--self" "-check"
        paths = [REPO / name for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md")]
        paths += sorted((REPO / "src" / "repro").rglob("*.py"))
        offenders = [str(p.relative_to(REPO)) for p in paths if flag in p.read_text()]
        assert not offenders, offenders
