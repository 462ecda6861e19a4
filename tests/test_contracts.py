"""Tests for repro.analysis.contracts — the symbolic shape/dtype checker.

Covers the symbolic algebra, the ``@shape_contract`` decorator, the
abstract-interpretation tracer, the registry checker (smoke sweep is part
of the tier-1 lint gate), the seeded mutation tests the acceptance
criteria require, and the two new lint rules it ships with
(``inference-mode-required``, ``noqa-unused``).
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import markers
from repro.analysis.contracts import (
    AbstractTensor,
    ContractError,
    Dim,
    SymbolicError,
    SymExpr,
    broadcast_sym_shapes,
    check_registry,
    render_shape,
    resymbolize,
    shape_contract,
    sym,
    trace_module,
)
from repro.analysis.contracts.checker import GEOMETRIES, _build
from repro.analysis.contracts.spec import contract_of
from repro.analysis.lint import LintConfig, lint_paths
from repro.nn import Linear, Module
from repro.tensor import Tensor, functional as F


# ----------------------------------------------------------------------
# symbolic algebra
# ----------------------------------------------------------------------
class TestSymbolicAlgebra:
    def test_dim_arithmetic_renders_and_evaluates(self):
        B = Dim("B", size=11)
        expr = 2 * B + 1
        assert isinstance(expr, SymExpr)
        assert int(expr) == 23
        assert str(expr) == "2*B+1"

    def test_equality_and_hash_follow_concrete_value(self):
        B = Dim("B", size=16)
        assert B + 0 == 16
        assert hash(sym(B)) == hash(16)
        # so symbolic entries work as dict keys next to plain ints
        cache = {(sym(B), 4): "plan"}
        assert cache[(16, 4)] == "plan"

    def test_structural_identity_is_separate_from_value(self):
        B, L = Dim("B", size=8), Dim("L", size=8)
        assert sym(B) == sym(L)  # same probe value
        assert not sym(B).same_as(sym(L))  # different symbols

    def test_comparisons_use_value(self):
        B = Dim("B", size=11)
        assert B + 1 > 11
        assert sym(5) <= B

    def test_floordiv_exact_and_opaque(self):
        H = Dim("H", size=12)
        exact = (4 * H) // 4
        assert exact.same_as(sym(H))
        opaque = (H + 1) // 4
        assert int(opaque) == 3
        assert "//" in str(opaque)

    def test_truediv_degrades_to_concrete_float(self):
        B = Dim("B", size=10)
        assert B / 4 == 2.5
        assert 5 / Dim("C", size=2) == 2.5

    def test_numpy_interop(self):
        B = Dim("B", size=7)
        assert np.zeros((B, 3)).shape == (7, 3)
        assert np.arange(B).shape == (7,)

    def test_broadcast_prefers_symbolic_entries(self):
        B = Dim("B", size=11, free=True)
        out = broadcast_sym_shapes((sym(B), 1, 4), (11, 5, 4))
        assert out[0].same_as(sym(B))
        assert out[1] == 5

    def test_broadcast_mismatch_raises(self):
        with pytest.raises(SymbolicError):
            broadcast_sym_shapes((3, 4), (3, 5))

    def test_resymbolize_recovers_free_dims(self):
        B = Dim("B", size=11, free=True)
        out = resymbolize((11, 22, 7), (B,))
        assert out[0].same_as(sym(B))
        assert out[1].same_as(sym(B) * 2)
        assert out[2] == 7

    def test_render_shape(self):
        B = Dim("B", size=11)
        assert render_shape((sym(B), 32, 3)) == "(B, 32, 3)"
        assert render_shape(None) == "?"


# ----------------------------------------------------------------------
# the decorator
# ----------------------------------------------------------------------
class TestShapeContractDecorator:
    def test_attaches_metadata_and_stays_transparent(self):
        @shape_contract(inputs={"x": "B L D"}, output="B L D")
        def forward(self, x):
            return x

        assert forward.__shape_contract__.inputs["x"] == ("B", "L", "D")
        assert forward(None, 42) == 42  # zero overhead outside a trace

    def test_rejects_unknown_parameter(self):
        with pytest.raises(ContractError):

            @shape_contract(inputs={"nope": "B"}, output=None)
            def forward(self, x):
                return x

    def test_rejects_malformed_entry(self):
        with pytest.raises(ContractError):
            shape_contract(inputs={"x": "B**2"}, output=None)(lambda self, x: x)

    def test_multi_output_spec(self):
        contract = shape_contract(inputs=None, output=("B H C", None))(
            lambda self, x: x
        ).__shape_contract__
        assert contract.multi_output
        assert contract.outputs[1] is None


class TestMarkers:
    """Model code uses ``repro.markers``: the raw spec is parsed only when
    a trace reads it, so ``import repro`` never loads ``repro.analysis``."""

    def test_engine_import_does_not_load_analysis(self):
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = "import sys, repro, repro.serve; print(sorted(m for m in sys.modules if m.startswith('repro.analysis')))"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"

    def test_raw_spec_is_parsed_when_traced(self):
        class Marked(_Toy):
            @markers.shape_contract(inputs={"x": "B L 8"}, output="B L 5")
            def forward(self, x):
                return F.relu(self.lin(x))

        assert Marked.forward.__shape_contract__ == {"inputs": {"x": "B L 8"}, "output": "B L 5"}
        B = Dim("B", size=11, free=True)
        trace = trace_module(Marked(), (_abstract((B, 6, 8)),), env={"B": B}, free_dims=(B,))
        assert [v.kind for v in trace.violations] == ["shape_mismatch"]
        assert "expected 5" in trace.violations[0].message
        assert contract_of(Marked.forward) is Marked.forward.__shape_contract__
        assert Marked.forward.__shape_contract__.outputs == (("B", "L", "5"),)

    def test_malformed_raw_spec_raises_when_read(self):
        forward = markers.shape_contract(inputs={"nope": "B"})(lambda self, x: x)
        with pytest.raises(ContractError):
            contract_of(forward)
        assert contract_of(lambda self, x: x) is None


# ----------------------------------------------------------------------
# abstract interpretation
# ----------------------------------------------------------------------
class _Toy(Module):
    def __init__(self, in_features=8, out_features=4):
        super().__init__()
        self.lin = Linear(in_features, out_features)

    @shape_contract(inputs={"x": "B L 8"}, output="B L 4")
    def forward(self, x):
        return F.relu(self.lin(x))


def _abstract(shape_entries, dtype=np.float64, seed=0):
    concrete = tuple(int(e) for e in shape_entries)
    data = np.random.default_rng(seed).standard_normal(concrete).astype(dtype)
    return AbstractTensor(data, shape_entries)


class TestTracer:
    def test_clean_trace_keeps_symbols(self):
        B = Dim("B", size=11, free=True)
        x = _abstract((B, 6, 8))
        trace = trace_module(_Toy(), (x,), env={"B": B}, free_dims=(B,))
        assert trace.violations == []
        assert trace.output_sym[0].same_as(sym(B))
        assert trace.output_sym[1:] == (6, 4)

    def test_contract_mismatch_is_reported(self):
        class Bad(_Toy):
            @shape_contract(inputs={"x": "B L 8"}, output="B L 5")
            def forward(self, x):
                return F.relu(self.lin(x))

        B = Dim("B", size=11, free=True)
        trace = trace_module(Bad(), (_abstract((B, 6, 8)),), env={"B": B}, free_dims=(B,))
        kinds = [v.kind for v in trace.violations]
        assert kinds == ["shape_mismatch"]
        assert "expected 5" in trace.violations[0].message

    def test_matmul_mismatch_names_module_and_symbolic_shapes(self):
        B = Dim("B", size=11, free=True)
        model = _Toy(in_features=9)  # projection disagrees with the input
        trace = trace_module(model, (_abstract((B, 6, 8)),), env={"B": B}, free_dims=(B,))
        (violation,) = trace.violations
        assert violation.kind == "shape_mismatch"
        assert violation.module == "lin"
        assert "(B, 6, 8) @ (9, 4)" in violation.message

    def test_dtype_drift_attributed_to_module(self):
        B = Dim("B", size=11, free=True)
        x = _abstract((B, 6, 8), dtype=np.float32)
        trace = trace_module(
            _Toy(), (x,), env={"B": B}, free_dims=(B,), expected_dtype=np.float32
        )
        kinds = {v.kind for v in trace.violations}
        assert kinds == {"dtype_drift"}  # float64 params leak into a float32 trace
        assert trace.violations[0].module == "lin"

    def test_double_broadcast_is_flagged(self):
        class Surprise(Module):
            def forward(self, x):
                # (B, 1, 4) + (1, B, 4): both operands broadcast silently
                return x + x.transpose(1, 0, 2)

        B = Dim("B", size=11, free=True)
        x = _abstract((B, 1, 4))
        trace = trace_module(Surprise(), (x,), env={"B": B}, free_dims=(B,))
        assert any(v.kind == "broadcast_surprise" for v in trace.violations)

    def test_window_kernels_keep_symbolic_length(self):
        class Windowed(Module):
            def forward(self, q, k, v):
                scores = F.window_scores(q, k, 2)
                return scores, F.window_mix(F.softmax(scores, axis=-1), v, half=2)

        B = Dim("B", size=11, free=True)
        L = Dim("L", size=7)  # not free: only a transfer rule can keep the label
        q, k, v = (_abstract((B, 2, L, 4), seed=s) for s in range(3))
        trace = trace_module(Windowed(), (q, k, v), env={"B": B, "L": L}, free_dims=(B,))
        assert trace.violations == []
        scores_sym, out_sym = trace.output_sym
        assert scores_sym[2].same_as(sym(L)) and scores_sym[3] == 5
        assert out_sym[2].same_as(sym(L)) and out_sym[3] == 4

    def test_shape_ops_preserve_symbols(self):
        class Reshaper(Module):
            def forward(self, x):
                b, l, d = x.shape
                return x.transpose(0, 2, 1).reshape(b, l * d)

        B = Dim("B", size=11, free=True)
        trace = trace_module(Reshaper(), (_abstract((B, 6, 8)),), env={"B": B}, free_dims=(B,))
        assert trace.violations == []
        assert trace.output_sym[0].same_as(sym(B))
        assert trace.output_sym[1] == 48


# ----------------------------------------------------------------------
# registry checker (tier-1 gate + mutation tests)
# ----------------------------------------------------------------------
@pytest.mark.lint
@pytest.mark.contracts
class TestRegistrySmoke:
    def test_registry_smoke_is_clean(self):
        report = check_registry(smoke=True)
        assert report.findings == []
        assert report.traces == 2 * len(report.models)  # both dtype modes
        assert report.ops_traced > 0


@pytest.mark.contracts
class TestRegistryFull:
    def test_full_sweep_is_clean_and_dual_probed(self):
        report = check_registry(models=["conformer", "gru", "dlinear"], smoke=False)
        assert report.findings == []
        # 2 probes on the primary geometry + 1 on the secondary, x 2 modes
        assert report.traces == 3 * 2 * 3
        conformer_outputs = {
            cell.output for cell in report.cells if cell.model == "conformer"
        }
        assert any("B" in out for out in conformer_outputs)


@pytest.mark.contracts
class TestSeededMutations:
    """The acceptance-criteria mutations: each must produce a finding
    naming the offending module and the symbolic shapes involved."""

    @staticmethod
    def _broken_projection(name, geometry, seed):
        from repro.nn.layers import Parameter

        model = _build(name, geometry, seed)
        attn = model.encoder_layers[0].attention
        w = attn.w_q.weight
        attn.w_q.weight = Parameter(np.zeros((w.data.shape[0] + 1, w.data.shape[1])))
        return model

    @staticmethod
    def _hardcoded_dtype(name, geometry, seed):
        model = _build(name, geometry, seed)
        # a constant with a hard-coded dtype: not a Parameter, so
        # Module.to_dtype cannot cast it for the float32 mode
        hard = Tensor(np.ones(geometry.enc_in))
        hard.data = hard.data.astype(np.float64)
        orig = type(model).forward
        def forward(self, x_enc, x_mark_enc, x_dec, y_mark_dec):
            return orig(self, x_enc * hard, x_mark_enc, x_dec, y_mark_dec)
        model.forward = forward.__get__(model)
        return model

    def test_broken_attention_projection_is_caught(self):
        report = check_registry(
            models=["transformer"], smoke=True, model_factory=self._broken_projection
        )
        assert report.findings, "mutated projection must produce findings"
        finding = report.findings[0]
        assert finding.rule_id == "contract-shape-mismatch"
        assert "encoder_layers.0.attention.w_q" in finding.path
        assert "(B, 32, 16) @ (17, 16)" in finding.message

    def test_hardcoded_dtype_is_caught_in_float32_mode(self):
        report = check_registry(
            models=["gru"], smoke=True, model_factory=self._hardcoded_dtype
        )
        drift = [f for f in report.findings if f.rule_id == "contract-dtype-drift"]
        assert drift, "hard-coded float64 must produce a dtype-drift finding"
        assert all("[float32/" in f.message for f in drift)
        assert "float64" in drift[0].message

    def test_cli_check_exits_1_on_mutation(self, monkeypatch, capsys):
        import repro.analysis.contracts.checker as checker_mod
        from repro.cli import main

        monkeypatch.setattr(checker_mod, "_build", self._broken_projection)
        code = main(["check", "--smoke", "--models", "transformer"])
        assert code == 1
        out = capsys.readouterr().out
        assert "contract-shape-mismatch" in out
        assert "inner dimensions disagree" in out


@pytest.mark.contracts
class TestCheckCli:
    def test_check_smoke_exits_0(self, capsys):
        from repro.cli import main

        assert main(["check", "--smoke", "--models", "gru,dlinear"]) == 0
        assert "0 findings" in capsys.readouterr().out

    def test_check_json_schema(self, capsys):
        import json

        from repro.cli import main

        assert main(["check", "--smoke", "--models", "gru", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 1
        assert payload["models"] == ["gru"]
        assert payload["total"] == 0
        assert {cell["mode"] for cell in payload["cells"]} == {"float64", "float32"}

    def test_check_unknown_model_exits_2(self, capsys):
        from repro.cli import main

        assert main(["check", "--models", "nope"]) == 2
        assert "unknown model" in capsys.readouterr().err


# ----------------------------------------------------------------------
# the two new lint rules
# ----------------------------------------------------------------------
class TestInferenceModeRequired:
    def _lint(self, tmp_path, source):
        (tmp_path / "m.py").write_text(source)
        return lint_paths([tmp_path], config=LintConfig(select=("inference-mode-required",)))

    def test_no_grad_in_predict_flagged(self, tmp_path):
        findings = self._lint(
            tmp_path,
            "from repro.tensor import no_grad\n"
            "def predict(model, x):\n"
            "    with no_grad():\n"
            "        return model(x)\n",
        )
        assert [f.rule_id for f in findings] == ["inference-mode-required"]
        assert "predict()" in findings[0].message

    def test_attribute_call_and_evaluate_prefix(self, tmp_path):
        findings = self._lint(
            tmp_path,
            "import repro.tensor as T\n"
            "def _evaluate_loss(model, x):\n"
            "    with T.no_grad():\n"
            "        return model(x)\n",
        )
        assert len(findings) == 1

    def test_inference_mode_is_clean(self, tmp_path):
        findings = self._lint(
            tmp_path,
            "from repro.tensor import inference_mode\n"
            "def predict(model, x):\n"
            "    with inference_mode():\n"
            "        return model(x)\n",
        )
        assert findings == []

    def test_no_grad_outside_predict_paths_allowed(self, tmp_path):
        findings = self._lint(
            tmp_path,
            "from repro.tensor import no_grad\n"
            "def gradcheck_reference(f, x):\n"
            "    with no_grad():\n"
            "        return f(x)\n",
        )
        assert findings == []


class TestNoqaUnused:
    def test_stale_suppression_flagged(self, tmp_path):
        (tmp_path / "m.py").write_text(
            "def log(m):\n    return m  # repro: noqa[no-print]\n"
        )
        findings = lint_paths([tmp_path], config=LintConfig())
        assert [f.rule_id for f in findings] == ["noqa-unused"]
        assert "no-print" in findings[0].message

    def test_used_suppression_is_silent(self, tmp_path):
        (tmp_path / "m.py").write_text(
            "def log(m):\n    print(m)  # repro: noqa[no-print]\n"
        )
        assert lint_paths([tmp_path], config=LintConfig()) == []

    def test_unknown_rule_id_flagged(self, tmp_path):
        (tmp_path / "m.py").write_text("x = 1  # repro: noqa[no-such-rule]\n")
        findings = lint_paths([tmp_path], config=LintConfig())
        assert [f.rule_id for f in findings] == ["noqa-unused"]
        assert "unknown rule" in findings[0].message

    def test_unused_blanket_noqa_flagged(self, tmp_path):
        (tmp_path / "m.py").write_text("x = 1  # repro: noqa\n")
        findings = lint_paths([tmp_path], config=LintConfig())
        assert [f.rule_id for f in findings] == ["noqa-unused"]
        assert "blanket" in findings[0].message

    def test_noqa_text_in_docstring_is_inert(self, tmp_path):
        (tmp_path / "m.py").write_text(
            '"""Example:\n\n    x  # repro: noqa[no-print]\n"""\nx = 1\n'
        )
        assert lint_paths([tmp_path], config=LintConfig()) == []

    def test_select_runs_skip_staleness(self, tmp_path):
        (tmp_path / "m.py").write_text("x = 1  # repro: noqa[no-print]\n")
        findings = lint_paths([tmp_path], config=LintConfig(select=("no-print",)))
        assert findings == []


# ----------------------------------------------------------------------
# lint driver plumbing (AST cache, --changed)
# ----------------------------------------------------------------------
class TestAstCache:
    def test_second_run_hits_cache(self, tmp_path):
        from repro.analysis.lint import ast_cache_stats, clear_ast_cache

        (tmp_path / "a.py").write_text("x = 1\n")
        (tmp_path / "b.py").write_text("y = 2\n")
        clear_ast_cache()
        lint_paths([tmp_path], config=LintConfig())
        first = ast_cache_stats()
        assert first == {"hits": 0, "misses": 2}
        lint_paths([tmp_path], config=LintConfig())
        second = ast_cache_stats()
        assert second["hits"] == 2
        assert second["misses"] == 2

    def test_modified_file_reparses(self, tmp_path):
        import os

        from repro.analysis.lint import ast_cache_stats, clear_ast_cache

        target = tmp_path / "a.py"
        target.write_text("x = 1\n")
        clear_ast_cache()
        lint_paths([tmp_path], config=LintConfig())
        target.write_text("print('hi')\n")
        os.utime(target, ns=(1, 1))  # force a distinct mtime even on coarse clocks
        findings = lint_paths([tmp_path], config=LintConfig())
        assert [f.rule_id for f in findings] == ["no-print"]
        assert ast_cache_stats()["misses"] == 2

    def test_parse_errors_are_cached_too(self, tmp_path):
        from repro.analysis.lint import ast_cache_stats, clear_ast_cache

        (tmp_path / "bad.py").write_text("def broken(:\n")
        clear_ast_cache()
        for _ in range(2):
            findings = lint_paths([tmp_path], config=LintConfig())
            assert [f.rule_id for f in findings] == ["parse-error"]
        assert ast_cache_stats() == {"hits": 1, "misses": 1}


class TestChangedFiles:
    @pytest.fixture
    def git_repo(self, tmp_path):
        import subprocess

        def git(*argv):
            subprocess.run(
                ["git", *argv], cwd=tmp_path, check=True, capture_output=True,
                env={"HOME": str(tmp_path), "GIT_AUTHOR_NAME": "t", "GIT_AUTHOR_EMAIL": "t@t",
                     "GIT_COMMITTER_NAME": "t", "GIT_COMMITTER_EMAIL": "t@t",
                     "PATH": __import__("os").environ["PATH"]},
            )

        git("init", "-q")
        (tmp_path / "clean.py").write_text("x = 1\n")
        git("add", "clean.py")
        git("commit", "-qm", "seed")
        return tmp_path

    def test_changed_files_sees_modified_and_untracked(self, git_repo):
        from repro.analysis.lint import changed_files

        (git_repo / "clean.py").write_text("x = 2\n")
        (git_repo / "new.py").write_text("print('hi')\n")
        changed = changed_files([git_repo], repo_root=git_repo)
        assert sorted(p.name for p in changed) == ["clean.py", "new.py"]

    def test_changed_files_bad_base_raises(self, git_repo):
        from repro.analysis.lint import changed_files

        with pytest.raises(RuntimeError):
            changed_files([git_repo], base="no-such-ref", repo_root=git_repo)


# ----------------------------------------------------------------------
# geometry sanity
# ----------------------------------------------------------------------
def test_geometries_pin_distinct_lengths():
    lengths = {g.input_len for g in GEOMETRIES}
    assert len(lengths) == len(GEOMETRIES)
