"""Fixture tests for every lint rule: each rule fires on a bad snippet
and stays silent on the equivalent good snippet.

Snippets are linted in memory through :func:`source_from_text` +
:func:`run_lint` with the rule under test selected explicitly, so a
fixture failure names exactly one rule.
"""

from __future__ import annotations

from repro.lint import (LintConfig, iter_rules, load_baseline, run_lint,
                        source_from_text, write_baseline)

CONFIG = LintConfig(root=".")


def lint_snippet(rule_id, text, rel="src/repro/gns/mod.py", refs=(),
                 extra=()):
    """Lint one in-memory snippet (plus optional corpus/ref files) with a
    single rule; returns the violations."""
    sources = [source_from_text(text, rel)]
    for ref_rel, ref_text in extra:
        sources.append(source_from_text(ref_text, ref_rel))
    ref_sources = [source_from_text(t, r) for r, t in refs]
    report = run_lint(CONFIG, rules=[rule_id], sources=sources,
                      ref_sources=ref_sources)
    return report.violations


def assert_fires(rule_id, text, **kw):
    violations = lint_snippet(rule_id, text, **kw)
    assert violations, f"{rule_id} did not fire on:\n{text}"
    assert all(v.rule == rule_id for v in violations)
    return violations


def assert_silent(rule_id, text, **kw):
    violations = lint_snippet(rule_id, text, **kw)
    assert not violations, (f"{rule_id} fired unexpectedly: "
                            f"{[v.as_text() for v in violations]}")


# ---------------------------------------------------------------- registry

def test_at_least_ten_rules_registered():
    run_lint(CONFIG, rules=[], sources=[])  # force rule import
    rules = list(iter_rules())
    assert len(rules) >= 10
    assert len({r.id for r in rules}) == len(rules)
    for r in rules:
        assert r.doc, f"rule {r.id} has no rationale docstring"


# ---------------------------------------------------------------- DET rules

def test_det001_legacy_global_rng():
    assert_fires("DET001", "import numpy as np\nnp.random.seed(0)\n")
    assert_fires("DET001", "import numpy as np\nx = np.random.randn(3)\n")
    assert_silent("DET001",
                  "import numpy as np\nrng = np.random.default_rng(0)\n"
                  "x = rng.normal(size=3)\n")
    assert_silent("DET001", "rng.shuffle(idx)\n")  # not np.random.*


def test_det002_stdlib_random():
    assert_fires("DET002", "import random\n")
    assert_fires("DET002", "from random import shuffle\n")
    assert_silent("DET002", "import numpy.random\n")
    assert_silent("DET002", "from numpy import random\n")


def test_det003_wall_clock_seed():
    assert_fires("DET003",
                 "import time\nimport numpy as np\n"
                 "rng = np.random.default_rng(time.time_ns())\n")
    assert_fires("DET003", "seed_everything(time.time())\n")
    assert_silent("DET003", "rng = np.random.default_rng(1234)\n")
    assert_silent("DET003", "t = time.time()\n")  # timing, not seeding


def test_det004_unseeded_generator():
    assert_fires("DET004", "import numpy as np\nrng = np.random.default_rng()\n")
    assert_silent("DET004", "rng = np.random.default_rng(0)\n")
    assert_silent("DET004", "rng = np.random.default_rng(seed)\n")


# ---------------------------------------------------------------- DTY rules

def test_dty001_constructor_dtype_in_hot_module():
    bad = "import numpy as np\nbuf = np.zeros((4, 3))\n"
    good = "import numpy as np\nbuf = np.zeros((4, 3), dtype=np.float64)\n"
    assert_fires("DTY001", bad, rel="src/repro/gns/engine.py")
    assert_silent("DTY001", good, rel="src/repro/gns/engine.py")
    # outside the hot modules the rule does not apply
    assert_silent("DTY001", bad, rel="src/repro/viz/render.py")


def test_dty002_float32_outside_allowlist():
    assert_fires("DTY002", "x = np.zeros(3, dtype=np.float32)\n")
    assert_fires("DTY002", 'x = arr.astype("float32")\n')
    assert_silent("DTY002", "x = np.zeros(3, dtype=np.float64)\n")
    assert_silent("DTY002",
                  "# repro-lint: fp32-ok — fp32 inference mode kernels\n"
                  "x = np.zeros(3, dtype=np.float32)\n")


# ---------------------------------------------------------------- ADF rules

def test_adf001_tape_op_without_vjp():
    bad = ("def op(x):\n"
           "    out = x.data * 2\n"
           "    return Tensor._make(out, (x,))\n")
    dangling = ("def op(x):\n"
                "    out = x.data * 2\n"
                "    return Tensor._make(out, (x,), backward)\n")
    good = ("def op(x):\n"
            "    out = x.data * 2\n"
            "    def backward(g, grads):\n"
            "        Tensor._add_grad(grads, x, 2 * g)\n"
            "    return Tensor._make(out, (x,), backward)\n")
    rel = "src/repro/autodiff/ops.py"
    assert_fires("ADF001", bad, rel=rel)
    assert_fires("ADF001", dangling, rel=rel)
    assert_silent("ADF001", good, rel=rel)
    # outside autodiff/ the contract does not apply
    assert_silent("ADF001", bad, rel="src/repro/gns/ops.py")


FUSED_KERNEL = ("def my_kernel(x):\n"
                "    out = x.data + 1\n"
                "    def backward(g, grads):\n"
                "        pass\n"
                "    return Tensor._make(out, (x,), backward)\n")


def test_adf002_gradcheck_coverage():
    rel = "src/repro/autodiff/fused.py"
    covered = [("tests/test_x.py", "from repro.autodiff import my_kernel\n"
                "def test_k():\n    my_kernel(t)\n")]
    uncovered = [("tests/test_x.py", "def test_other():\n    pass\n")]
    assert_fires("ADF002", FUSED_KERNEL, rel=rel, refs=uncovered)
    assert_silent("ADF002", FUSED_KERNEL, rel=rel, refs=covered)
    # private helpers are not part of the kernel surface
    assert_silent("ADF002", FUSED_KERNEL.replace("my_kernel", "_helper"),
                  rel=rel, refs=uncovered)


def test_adf003_vjp_tests_requires_grad():
    bad = ("def op(x, w):\n"
           "    def backward(g, grads):\n"
           "        if w.requires_grad:\n"
           "            Tensor._add_grad(grads, w, x.data.T @ g)\n"
           "    return Tensor._make(x.data @ w.data, (x, w), backward)\n")
    # a VJP whose mapping is not named `grads` is still found via _make
    renamed = ("def op(x):\n"
               "    def vjp(g, acc):\n"
               "        if x.requires_grad:\n"
               "            Tensor._add_grad(acc, x, g)\n"
               "    return Tensor._make(x.data, (x,), vjp)\n")
    lam = ("def op(x):\n"
           "    return Tensor._make(x.data, (x,),\n"
           "        lambda g, acc: x.requires_grad and acc.update({}))\n")
    # helpers that receive the sweep's mapping are VJP code too
    helper = ("def _tail(g, saved, weight, grads):\n"
              "    if weight.requires_grad:\n"
              "        Tensor._add_grad(grads, weight, saved @ g)\n"
              "    return g\n")
    good = bad.replace("w.requires_grad", "grads.wants(w)")
    rel = "src/repro/autodiff/ops.py"
    for text in (bad, renamed, lam, helper):
        assert_fires("ADF003", text, rel=rel)
    assert_silent("ADF003", good, rel=rel)
    # forward-time checks and flag writes are not VJP decisions
    assert_silent("ADF003",
                  "def op(x):\n"
                  "    needs = x.requires_grad\n"
                  "    def backward(g, grads):\n"
                  "        Tensor._add_grad(grads, x, g)\n"
                  "    return Tensor._make(x.data, (x,), backward)\n"
                  "def freeze(t):\n"
                  "    t.requires_grad = False\n", rel=rel)
    # outside autodiff/ the contract does not apply
    assert_silent("ADF003", bad, rel="src/repro/gns/ops.py")


# ---------------------------------------------------------------- CNV rules

def test_cnv001_metric_and_span_naming():
    assert_fires("CNV001", 'reg.counter("BadName").inc()\n')
    assert_fires("CNV001", 'reg.counter("flat").inc()\n')  # no dot
    assert_fires("CNV001", 'tracer.span("Bad Span")\n')
    assert_silent("CNV001", 'reg.counter("pool.respawns").inc()\n')
    assert_silent("CNV001", 'tracer.span("mpm/p2g")\n')
    assert_silent("CNV001", 'reg.counter(dynamic_name).inc()\n')


def test_cnv001_metric_kind_consistency():
    conflict = ('reg.counter("train.loss").inc()\n'
                'reg.gauge("train.loss").set(1.0)\n')
    assert_fires("CNV001", conflict)
    consistent = ('reg.counter("train.steps").inc()\n'
                  'reg.counter("train.steps").inc()\n')
    assert_silent("CNV001", consistent)


def test_cnv002_fault_site_exists():
    faults = [("src/repro/resilience/faults.py",
               'KNOWN_SITES = frozenset({"io.load", "pool.crash"})\n')]
    assert_fires("CNV002", 'inj.fire("io.laod")\n', extra=faults)
    assert_fires("CNV002", 'inj.raise_if("ckpt.nope")\n', extra=faults)
    assert_silent("CNV002", 'inj.fire("io.load")\n', extra=faults)
    assert_silent("CNV002", "inj.fire(site_var)\n", extra=faults)
    # without the faults module in the corpus the rule stands down
    assert_silent("CNV002", 'inj.fire("anything.goes")\n')


def test_cnv003_broad_except():
    assert_fires("CNV003", "try:\n    f()\nexcept:\n    pass\n")
    assert_fires("CNV003",
                 "try:\n    f()\nexcept Exception:\n    log()\n")
    assert_silent("CNV003",
                  "try:\n    f()\nexcept Exception:\n    log()\n    raise\n")
    assert_silent("CNV003",
                  "try:\n    f()\n"
                  "except (KeyboardInterrupt, SystemExit):\n    raise\n"
                  "except Exception:\n    log()\n")
    assert_silent("CNV003",
                  "try:\n    f()\nexcept (OSError, ValueError):\n    pass\n")


# ---------------------------------------------------------------- BKD rules

def test_bkd001_raw_np_in_dispatched_module():
    bad = "import numpy as np\ny = np.exp(x)\n"
    assert_fires("BKD001", bad, rel="src/repro/autodiff/tensor.py")
    assert_fires("BKD001", bad, rel="src/repro/gns/network.py")
    assert_fires("BKD001", bad, rel="src/repro/gns/engine.py")
    assert_fires("BKD001", bad, rel="src/repro/nn/mlp.py")
    # only dispatched names fire; host-side helpers stay allowed
    assert_silent("BKD001", "n = np.searchsorted(a, b)\n",
                  rel="src/repro/autodiff/scatter_new.py")
    # routed through the backend namespace: fine
    assert_silent("BKD001", "xp = active_xp()\ny = xp.exp(x)\n",
                  rel="src/repro/autodiff/tensor.py")
    # modules outside the dispatched set are not covered
    assert_silent("BKD001", bad, rel="src/repro/mpm/grid.py")
    assert_silent("BKD001", bad, rel="src/repro/viz/render.py")


def test_bkd001_scatter_at_calls():
    assert_fires("BKD001", "np.add.at(out, idx, vals)\n",
                 rel="src/repro/autodiff/scatter_new.py")
    assert_fires("BKD001", "np.maximum.at(out, idx, vals)\n",
                 rel="src/repro/gns/network.py")
    assert_silent("BKD001", "b.index_add(out, idx, vals)\n",
                  rel="src/repro/gns/network.py")


def test_bkd001_exemptions():
    bad = "import numpy as np\ny = np.exp(x)\n"
    # the backend package IS the numpy implementation
    assert_silent("BKD001", bad, rel="src/repro/backend/numpy_backend.py")
    # reference-kernel modules opt out with the file pragma
    assert_silent("BKD001",
                  "# repro-lint: backend-kernels — reference kernels\n" + bad,
                  rel="src/repro/autodiff/scatter.py")
    # host-only lines use the targeted escape
    assert_silent("BKD001",
                  "import numpy as np\n"
                  "y = np.exp(x)  # lint: ignore[BKD001] — host-only\n",
                  rel="src/repro/gns/engine.py")


# ----------------------------------------------------- engine mechanics

def test_suppression_comment_is_honored():
    text = "import numpy as np\nnp.random.seed(0)  # lint: ignore[DET001]\n"
    report = run_lint(CONFIG, rules=["DET001"],
                      sources=[source_from_text(text, "src/repro/m.py")])
    assert not report.violations
    assert report.suppressed == 1


def test_suppression_is_rule_specific():
    text = "import numpy as np\nnp.random.seed(0)  # lint: ignore[DTY001]\n"
    assert_fires("DET001", text)


def test_syntax_error_reported_as_violation():
    report = run_lint(CONFIG, sources=[source_from_text("def broken(:\n",
                                                        "src/repro/m.py")])
    assert [v.rule for v in report.violations] == ["SYNTAX"]
    assert report.exit_code(strict=True) == 1


def test_baseline_roundtrip(tmp_path):
    text = "import numpy as np\nnp.random.seed(0)\n"
    src = [source_from_text(text, "src/repro/m.py")]
    report = run_lint(CONFIG, rules=["DET001"], sources=src)
    assert report.exit_code() == 1

    path = tmp_path / "baseline.json"
    write_baseline(path, report)
    baseline = load_baseline(path)
    report2 = run_lint(CONFIG, rules=["DET001"], sources=src,
                       baseline=baseline)
    assert all(v.baselined for v in report2.violations)
    assert report2.exit_code() == 0
    assert report2.exit_code(strict=True) == 0
    # a second identical violation is fresh — the baseline is per-count
    src2 = [source_from_text(text + "np.random.seed(1)\n", "src/repro/m.py")]
    report3 = run_lint(CONFIG, rules=["DET001"], sources=src2,
                       baseline=baseline)
    assert any(not v.baselined for v in report3.violations)
    assert report3.exit_code() == 1


def test_report_formats():
    text = "import numpy as np\nnp.random.seed(0)\n"
    report = run_lint(CONFIG, rules=["DET001"],
                      sources=[source_from_text(text, "src/repro/m.py")])
    assert "DET001" in report.as_text()
    import json
    payload = json.loads(report.as_json())
    assert payload["format"] == "repro.lint.report"
    assert payload["summary"]["fresh"] == 1
