"""Tests for ``repro lint`` — the static-analysis framework and checkers.

Three layers of assurance:

* **plants fire** — every RPR family produces its finding on the
  planted-violation fixtures in ``tests/lint_fixtures/``;
* **the repo is clean** — a self-run over ``src/`` returns zero
  findings, which is what the CI lint job gates on;
* **the plumbing holds** — noqa suppression (including family
  prefixes and string-literal immunity), ``--select`` filtering, text
  and JSON rendering, and the CLI exit-code contract.
"""

from __future__ import annotations

import ast
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.static import (
    all_checkers,
    collect_sources,
    format_findings,
    known_codes,
    run_lint,
)
from repro.analysis.static.determinism import (
    KNOWN_RECORD_SCHEMAS,
    DeterminismChecker,
    record_schema_fingerprint,
)
from repro.analysis.static.locks import LockCoverageChecker
from repro.analysis.static.parity import ParityPairChecker
from repro.analysis.static.registry_contracts import RegistryContractChecker
from repro.analysis.static.resources import ResourceBalanceChecker
from repro.errors import InvalidParameterError
from repro.io.cli import main

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = REPO_ROOT / "tests" / "lint_fixtures"


def codes_of(findings) -> list[str]:
    return [finding.code for finding in findings]


class TestDeterminismChecker:
    def test_producer_closure_catches_wall_clock_and_sets(self):
        findings = run_lint(
            [FIXTURES / "determinism_bad.py"],
            root=REPO_ROOT,
            checkers=[DeterminismChecker()],
        )
        assert "RPR101" in codes_of(findings)
        assert "RPR102" in codes_of(findings)
        rpr101 = next(f for f in findings if f.code == "RPR101")
        assert "time.time" in rpr101.message
        assert "_salt" in rpr101.message

    def test_unregistered_record_version_is_rpr104(self):
        findings = run_lint(
            [FIXTURES / "record_v99.py"],
            root=REPO_ROOT,
            checkers=[DeterminismChecker()],
        )
        assert codes_of(findings) == ["RPR104"]
        assert "99" in findings[0].message

    def test_schema_drift_under_registered_version_is_rpr103(self):
        findings = run_lint(
            [FIXTURES / "record_drift.py"],
            root=REPO_ROOT,
            checkers=[DeterminismChecker()],
        )
        assert codes_of(findings) == ["RPR103"]
        assert "RECORD_VERSION" in findings[0].message

    def test_registered_fingerprint_matches_the_live_payload(self):
        """The blessed fingerprint in the linter must track the actual
        runner vocabulary — otherwise the self-run below would fail."""
        from repro.engine.runner import _RECORD_PAYLOAD_KEYS, RECORD_VERSION

        assert KNOWN_RECORD_SCHEMAS[RECORD_VERSION] == (
            record_schema_fingerprint(sorted(_RECORD_PAYLOAD_KEYS))
        )

    def test_fingerprint_is_order_insensitive(self):
        assert record_schema_fingerprint(["b", "a"]) == (
            record_schema_fingerprint(["a", "b"])
        )
        assert record_schema_fingerprint(["a"]) != (
            record_schema_fingerprint(["a", "b"])
        )


class TestLockCoverageChecker:
    def lint(self, path):
        return run_lint(
            [path], root=REPO_ROOT, checkers=[LockCoverageChecker()]
        )

    def test_unlocked_writes_flagged_locked_writes_not(self):
        findings = self.lint(FIXTURES / "locks_bad.py")
        assert codes_of(findings) == ["RPR201", "RPR201", "RPR201"]
        methods = {f.message.split()[0] for f in findings}
        assert methods == {"Counter.bump", "Counter.tricky", "Counter.record"}

    def test_subscript_write_counts_as_attribute_write(self):
        findings = self.lint(FIXTURES / "locks_bad.py")
        assert any("_log" in f.message for f in findings)

    def test_noqa_in_string_literal_does_not_suppress(self):
        """``Counter.tricky`` assigns the literal string "# noqa";
        tokenize-based comment parsing must still flag the line."""
        findings = self.lint(FIXTURES / "locks_bad.py")
        assert any("tricky" in f.message for f in findings)

    def test_lockless_class_is_out_of_scope(self, tmp_path):
        (tmp_path / "plain.py").write_text(
            "class Plain:\n"
            "    def __init__(self):\n"
            "        self.x = 0\n"
            "    def bump(self):\n"
            "        self.x += 1\n"
        )
        assert self.lint(tmp_path / "plain.py") == []


class TestResourceBalanceChecker:
    def test_fixture_yields_one_of_each(self):
        findings = run_lint(
            [FIXTURES / "resources_bad.py"],
            root=REPO_ROOT,
            checkers=[ResourceBalanceChecker()],
        )
        assert sorted(codes_of(findings)) == ["RPR401", "RPR402", "RPR403"]
        by_code = {f.code: f for f in findings}
        assert "leaky_create" in by_code["RPR401"].message
        assert "leaky_attach" in by_code["RPR402"].message
        assert "BadBackend" in by_code["RPR403"].message

    def test_balanced_create_and_protocol_classes_pass(self, tmp_path):
        (tmp_path / "ok.py").write_text(
            "from typing import Protocol\n"
            "class CacheBackend(Protocol):\n"
            "    def get(self, key): ...\n"
            "    def put(self, key, value): ...\n"
            "    def keys(self): ...\n"
        )
        findings = run_lint(
            [tmp_path / "ok.py"],
            root=tmp_path,
            checkers=[ResourceBalanceChecker()],
        )
        assert findings == []


class TestParityPairChecker:
    def make_tree(self, tmp_path, *, reference: str, test_text: str):
        perf = tmp_path / "perf"
        perf.mkdir()
        (perf / "__init__.py").write_text("")
        (perf / "fast.py").write_text(
            '__all__ = ["fast_sum", "Widget"]\n'
            "def fast_sum(xs):\n    return sum(xs)\n"
            "class Widget:\n    pass\n"
        )
        (perf / "reference.py").write_text(reference)
        tests = tmp_path / "tests"
        tests.mkdir()
        (tests / "test_diff.py").write_text(test_text)
        return tmp_path

    def lint(self, root):
        return run_lint([root], root=root, checkers=[ParityPairChecker()])

    def test_missing_counterpart_is_rpr301(self, tmp_path):
        root = self.make_tree(
            tmp_path,
            reference="def fast_sum_reference(xs):\n    return sum(xs)\n",
            test_text="from perf.fast import fast_sum\n"
            "from perf.reference import fast_sum_reference\n",
        )
        findings = self.lint(root)
        assert codes_of(findings) == ["RPR301"]
        assert "'Widget'" in findings[0].message

    def test_parity_pairs_table_satisfies_the_convention_gap(self, tmp_path):
        root = self.make_tree(
            tmp_path,
            reference='PARITY_PAIRS = {"Widget": "fast_sum_reference"}\n'
            "def fast_sum_reference(xs):\n    return sum(xs)\n",
            test_text="pairs = ['fast_sum', 'fast_sum_reference', 'Widget']\n",
        )
        assert self.lint(root) == []

    def test_untested_pair_is_rpr302(self, tmp_path):
        root = self.make_tree(
            tmp_path,
            reference='PARITY_PAIRS = {"Widget": "fast_sum_reference"}\n'
            "def fast_sum_reference(xs):\n    return sum(xs)\n",
            test_text="from perf.fast import fast_sum  # twin never named\n",
        )
        findings = self.lint(root)
        assert codes_of(findings) == ["RPR302", "RPR302"]

    def test_repo_parity_pairs_all_resolve(self):
        """Every entry in the real PARITY_PAIRS names a real reference
        attribute — the table must never rot."""
        import repro.perf.reference as ref

        for kernel, twin in ref.PARITY_PAIRS.items():
            assert hasattr(ref, twin), (kernel, twin)


class FakeInfo:
    def __init__(
        self,
        name,
        runner=lambda instance: None,
        certificate=None,
        caps=(),
        variant_params=None,
        params=None,
    ):
        self.name = name
        self.runner = runner
        self.certificate = certificate
        self._caps = frozenset(caps)
        self.variant_params = dict(variant_params or {})
        self.params = dict(params or {})

    def capabilities(self):
        return self._caps


class FakeAlgorithms:
    """Minimal registry double; ``broken`` raising and ``drift`` never
    reaching a canonical fixed point are the planted violations."""

    def __init__(self, infos, broken=(), drift=False):
        self._infos = {info.name: info for info in infos}
        self._broken = set(broken)
        self._drift = drift

    def names(self):
        return sorted(self._infos) + sorted(self._broken)

    def info(self, spec):
        if spec in self._broken:
            raise KeyError(f"algorithm {spec!r} is not registered")
        if "?" in spec:
            base, _, query = spec.partition("?")
            template = self._infos[base]
            name = f"{base}?{query}0" if self._drift else f"{base}?{query}"
            return FakeInfo(
                name,
                runner=template.runner,
                variant_params=template.variant_params,
                params={"q": query},
            )
        return self._infos[spec]


class FakeWorkloads:
    def __init__(self, build_fns, broken=()):
        self._build = dict(build_fns)
        self._broken = set(broken)

    def names(self):
        return sorted(self._build) + sorted(self._broken)

    def info(self, spec):
        if spec in self._broken:
            raise KeyError(f"workload {spec!r} is not registered")
        return FakeInfo(spec.partition("?")[0])

    def build(self, spec):
        name = spec.partition("?")[0]
        return self._build[name]()


def anchored_tree(tmp_path):
    """A lint root containing both registry anchor files."""
    for sub in ("engine", "workloads"):
        (tmp_path / sub).mkdir()
        (tmp_path / sub / "registry.py").write_text("# anchor\n")
    return tmp_path


class TestRegistryContractChecker:
    def lint(self, root, algorithms, workloads):
        checker = RegistryContractChecker(
            algorithms=algorithms, workloads=workloads
        )
        return run_lint([root], root=root, checkers=[checker])

    def empty_workloads(self):
        return FakeWorkloads({})

    def test_clean_fakes_produce_no_findings(self, tmp_path):
        from repro.workloads import poisson_instance

        algorithms = FakeAlgorithms([FakeInfo("good")])
        workloads = FakeWorkloads(
            {"steady": lambda: poisson_instance(6, m=1, alpha=3.0, seed=3)}
        )
        root = anchored_tree(tmp_path)
        assert self.lint(root, algorithms, workloads) == []

    def test_unresolvable_entries_are_rpr501(self, tmp_path):
        algorithms = FakeAlgorithms([FakeInfo("good")], broken=["ghost"])
        workloads = FakeWorkloads({}, broken=["phantom"])
        root = anchored_tree(tmp_path)
        findings = self.lint(root, algorithms, workloads)
        assert codes_of(findings).count("RPR501") == 2
        joined = " ".join(f.message for f in findings)
        assert "ghost" in joined and "phantom" in joined

    def test_capability_certificate_mismatch_is_rpr502(self, tmp_path):
        algorithms = FakeAlgorithms(
            [FakeInfo("claims", caps=("certificate-producing",))]
        )
        root = anchored_tree(tmp_path)
        findings = self.lint(root, algorithms, self.empty_workloads())
        assert codes_of(findings) == ["RPR502"]

    def test_bad_certificate_arity_is_rpr502(self, tmp_path):
        algorithms = FakeAlgorithms(
            [
                FakeInfo(
                    "twoarg",
                    certificate=lambda raw, extra: None,
                    caps=("certificate-producing",),
                )
            ]
        )
        root = anchored_tree(tmp_path)
        findings = self.lint(root, algorithms, self.empty_workloads())
        assert codes_of(findings) == ["RPR502"]
        assert "one positional argument" in findings[0].message

    def test_variant_canonicalization_drift_is_rpr503(self, tmp_path):
        algorithms = FakeAlgorithms(
            [FakeInfo("pd", variant_params={"delta": float})], drift=True
        )
        root = anchored_tree(tmp_path)
        findings = self.lint(root, algorithms, self.empty_workloads())
        assert codes_of(findings) == ["RPR503"]
        assert "fixed point" in findings[0].message

    def test_nondeterministic_workload_is_rpr504(self, tmp_path):
        from repro.workloads import poisson_instance

        seeds = iter(range(100))
        workloads = FakeWorkloads(
            {
                "flaky": lambda: poisson_instance(
                    6, m=1, alpha=3.0, seed=next(seeds)
                )
            }
        )
        root = anchored_tree(tmp_path)
        findings = self.lint(root, FakeAlgorithms([]), workloads)
        assert codes_of(findings) == ["RPR504"]
        assert "nondeterministic" in findings[0].message

    def test_broken_build_contract_is_rpr505(self, tmp_path):
        def explode():
            raise TypeError("unexpected keyword argument 'seed'")

        workloads = FakeWorkloads({"grumpy": explode})
        root = anchored_tree(tmp_path)
        findings = self.lint(root, FakeAlgorithms([]), workloads)
        assert codes_of(findings) == ["RPR505"]

    def test_no_anchor_files_no_registry_pass(self, tmp_path):
        """Linting sources that do not include the registry modules must
        not import (or validate) the live registries."""
        (tmp_path / "other.py").write_text("x = 1\n")

        class Bomb:
            def names(self):
                raise AssertionError("registry touched without an anchor")

        checker = RegistryContractChecker(algorithms=Bomb(), workloads=Bomb())
        assert run_lint([tmp_path], root=tmp_path, checkers=[checker]) == []

    def test_live_registries_pass(self):
        """The real REGISTRY/WORKLOADS satisfy their own contracts."""
        from repro.engine.registry import REGISTRY
        from repro.workloads.registry import WORKLOADS

        sources, errors = collect_sources(
            [
                REPO_ROOT / "src" / "repro" / "engine" / "registry.py",
                REPO_ROOT / "src" / "repro" / "workloads" / "registry.py",
            ],
            REPO_ROOT,
        )
        assert errors == []
        checker = RegistryContractChecker(
            algorithms=REGISTRY, workloads=WORKLOADS
        )
        assert checker.check_repo(sources, REPO_ROOT) == []


class TestFrameworkPlumbing:
    def test_noqa_suppresses_exact_family_and_bare(self):
        findings = run_lint([FIXTURES / "suppressed.py"], root=REPO_ROOT)
        assert findings == []

    def test_select_filters_by_prefix(self):
        findings = run_lint(
            [FIXTURES / "resources_bad.py"], root=REPO_ROOT, select=["RPR40"]
        )
        assert sorted(codes_of(findings)) == ["RPR401", "RPR402", "RPR403"]
        only = run_lint(
            [FIXTURES / "resources_bad.py"], root=REPO_ROOT, select=["RPR403"]
        )
        assert codes_of(only) == ["RPR403"]

    def test_syntax_error_becomes_rpr001(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def oops(:\n")
        findings = run_lint([bad], root=tmp_path)
        assert codes_of(findings) == ["RPR001"]
        assert "cannot parse" in findings[0].message

    def test_missing_target_raises_input_error(self):
        with pytest.raises(InvalidParameterError, match="does not exist"):
            run_lint([REPO_ROOT / "no" / "such" / "dir"], root=REPO_ROOT)

    def test_findings_sort_and_render(self):
        findings = run_lint([FIXTURES / "locks_bad.py"], root=REPO_ROOT)
        assert findings == sorted(findings)
        rendered = findings[0].render()
        assert rendered.startswith("tests/lint_fixtures/locks_bad.py:")
        assert "RPR201" in rendered

    def test_format_text_and_json(self):
        findings = run_lint([FIXTURES / "locks_bad.py"], root=REPO_ROOT)
        text = format_findings(findings, "text")
        assert text.endswith(f"{len(findings)} finding(s)")
        payload = json.loads(format_findings(findings, "json"))
        assert payload["count"] == len(findings)
        assert payload["findings"][0]["code"] == "RPR201"
        assert format_findings([], "text") == "clean: no findings"
        with pytest.raises(InvalidParameterError, match="format"):
            format_findings(findings, "yaml")

    def test_known_codes_cover_every_family(self):
        codes = known_codes()
        assert "RPR001" in codes
        for family in ("RPR1", "RPR2", "RPR3", "RPR4", "RPR5"):
            assert any(code.startswith(family) for code in codes)

    def test_every_checker_declares_its_codes(self):
        for checker in all_checkers():
            assert checker.codes, checker.name
            assert all(code.startswith("RPR") for code in checker.codes)


#: Where ``src/repro`` may call the builtin ``sum``, as (module, enclosing
#: function): integer counts, which every Python sums exactly, and the
#: bench calibration kernel, whose value is discarded (a Python loop
#: there would move ``calibration_seconds`` and every gate budget).
BUILTIN_SUM_SITES = {
    ("analysis/preemption.py", "preemption_stats"),
    ("engine/cache.py", "__len__"),
    ("engine/cache.py", "stats"),
    ("engine/experiment.py", "__post_init__"),
    ("perf/bench.py", "_calibration_seconds"),
}


class _SumCalls(ast.NodeVisitor):
    """Collects the enclosing function of every builtin ``sum(...)``."""

    def __init__(self) -> None:
        self.scopes = ["<module>"]
        self.calls: list[str] = []

    def visit_FunctionDef(self, node) -> None:
        self.scopes.append(node.name)
        self.generic_visit(node)
        self.scopes.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node) -> None:
        if isinstance(node.func, ast.Name) and node.func.id == "sum":
            self.calls.append(self.scopes[-1])
        self.generic_visit(node)


class TestSelfRun:
    def test_repo_src_is_clean(self):
        """The invariant CI gates on: the shipped tree has no findings."""
        assert run_lint([REPO_ROOT / "src"], root=REPO_ROOT) == []

    def test_builtin_sum_only_adds_ints(self):
        """Python 3.12's builtin ``sum`` compensates float rounding and
        3.10's and 3.11's do not, so a float sum in ``src/repro`` goes
        through ``repro.types.left_sum``: results then agree on every
        interpreter CI runs."""
        package = REPO_ROOT / "src" / "repro"
        sites = []
        for path in sorted(package.rglob("*.py")):
            visitor = _SumCalls()
            visitor.visit(ast.parse(path.read_text()))
            module = path.relative_to(package).as_posix()
            sites += [(module, scope) for scope in visitor.calls]
        assert sorted(sites) == sorted(BUILTIN_SUM_SITES)

    def test_workload_scalar_draws_take_the_cheap_calls(self):
        """A scalar ``rng.uniform(...)`` or ``rng.exponential(...)``
        spends about three times its draw in numpy's argument handling.
        A family drawing one value at a time calls ``rng.random()`` or
        ``rng.standard_exponential()`` and does numpy's arithmetic
        itself, which gives the same bits; a draw of a whole column
        names its ``size=``."""
        package = REPO_ROOT / "src" / "repro" / "workloads"
        scalar = []
        for path in sorted(package.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("uniform", "exponential")
                    and not any(kw.arg == "size" for kw in node.keywords)
                ):
                    scalar.append(f"{path.name}:{node.lineno}")
        assert scalar == []


class TestExternalLinters:
    """ruff/mypy run against the committed pyproject.toml config when the
    tools are present (CI's lint job installs them; the offline test
    container may not have them, hence the skips)."""

    @pytest.mark.skipif(
        shutil.which("ruff") is None, reason="ruff not installed"
    )
    def test_ruff_clean(self):
        proc = subprocess.run(
            ["ruff", "check", "src", "tests"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr

    @pytest.mark.skipif(
        shutil.which("mypy") is None, reason="mypy not installed"
    )
    def test_mypy_typed_core_clean(self):
        proc = subprocess.run(
            [sys.executable, "-m", "mypy"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr


class TestCli:
    def test_lint_clean_exit_zero(self, capsys):
        assert main(["lint", str(REPO_ROOT / "src" / "repro" / "model")]) == 0
        assert "clean: no findings" in capsys.readouterr().out

    def test_lint_findings_exit_one(self, capsys):
        assert main(["lint", str(FIXTURES / "locks_bad.py")]) == 1
        out = capsys.readouterr().out
        assert "RPR201" in out and "finding(s)" in out

    def test_lint_json_format(self, capsys):
        code = main(
            ["lint", "--format", "json", str(FIXTURES / "resources_bad.py")]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 3

    def test_lint_select(self, capsys):
        code = main(
            [
                "lint",
                "--select",
                "RPR403",
                str(FIXTURES / "resources_bad.py"),
            ]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "RPR403" in out and "RPR401" not in out

    def test_lint_select_comma_separated(self, capsys):
        code = main(
            [
                "lint",
                "--select",
                "RPR401,RPR402",
                str(FIXTURES / "resources_bad.py"),
            ]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "RPR401" in out and "RPR403" not in out

    def test_list_codes(self, capsys):
        assert main(["lint", "--list-codes"]) == 0
        out = capsys.readouterr().out
        assert "RPR101" in out and "RPR501" in out

    def test_missing_target_exit_two(self, capsys):
        assert main(["lint", str(REPO_ROOT / "definitely-not-here")]) == 2
        assert "does not exist" in capsys.readouterr().err
