"""Reports pinned byte for byte against a stored copy.

The determinism tests compare two runs of the same code; this one compares
a fresh run with ``golden/reports.txt``, so a refactor that changes any
report line fails here.  The file holds, for each report, its text without
timing followed by its records.  Regenerate it only for an intended change
of report content:

    PYTHONPATH=src python tests/test_golden.py
"""

from pathlib import Path

import numpy as np

from smonkit import exactla, harness

GOLDEN = Path(__file__).resolve().parent / "golden" / "reports.txt"
SUITES = ("ce", "adjunction", "smon-perp", "lz3", "pd-add", "triangular", "weakly-gorenstein")
CONTEXTS = (("kx2", "chain3"), ("chain3", "a2"))


def _suite_reports(base, factor, p=2):
    ctx = harness.standard_context(base, factor, p=p)
    for name in SUITES:
        cfg = harness.SuiteConfig(
            context=ctx, bound=4, samples=8, seed=13, context_label=f"{base}/{factor}"
        )
        yield harness.run_suite(name, cfg)


def _reports():
    for base, factor in CONTEXTS:
        yield from _suite_reports(base, factor)
    cfg = harness.SuiteConfig(algebra=harness.nakayama_17_18_18(), bound=12)
    yield harness.run_suite("nakayama", cfg)
    # the headline run, as scripts/run_nakayama.py makes it
    cfg = harness.SuiteConfig(
        algebra=harness.nakayama_17_18_18(), bound=60, context_label="kupisch-17-18-18"
    )
    yield harness.run_suite("nakayama", cfg)
    # small Nakayama algebras, so that the syzygy orbit lines are pinned too
    for algebra in (
        harness.algebra_loop_nilpotent(3),
        harness.algebra_loop_nilpotent(4),
        harness.algebra_three_chain(),
    ):
        yield harness.run_suite("nakayama", harness.SuiteConfig(algebra=algebra, bound=12))
    # one context over F_3, so that reduction mod an odd prime is pinned too
    yield from _suite_reports("chain3", "a2", p=3)
    # a factor whose source has a path of length two, so that the triple
    # conditions see Ext(phi, -) fail in degrees past the first
    cfg = harness.SuiteConfig(
        context=harness.standard_context("chain3", "chain3"),
        bound=4,
        samples=24,
        seed=13,
        context_label="chain3/chain3",
    )
    yield harness.run_suite("triangular", cfg)


def _text(reports) -> str:
    return "".join(r.to_text(include_timing=False) + r.to_records() for r in reports)


def render() -> str:
    return _text(_reports())


def test_reports_match_golden():
    assert render() == GOLDEN.read_text(encoding="utf-8")


def test_trusted_wraps_keep_their_invariant(monkeypatch):
    """``FpMatrix._of`` skips validation, so every caller must hand it a 2-D
    int64 array in [0, p) for an already validated p; check each call while
    the suites run over F_2 and F_3, and that the reports do not change."""
    trusted = exactla.FpMatrix._of
    primes = []

    def checked(p, arr):
        assert type(p) is int and p in exactla._CHECKED_PRIMES
        assert isinstance(arr, np.ndarray) and arr.ndim == 2 and arr.dtype == np.int64
        assert arr.size == 0 or (arr.min() >= 0 and arr.max() < p)
        primes.append(p)
        return trusted(p, arr)

    monkeypatch.setattr(exactla.FpMatrix, "_of", staticmethod(checked))
    golden = GOLDEN.read_text(encoding="utf-8")
    for base, factor, p in (("kx2", "chain3", 2), ("chain3", "a2", 3)):
        assert _text(_suite_reports(base, factor, p)) in golden
    # arithmetic whose raw results leave [0, p) before the one reduction
    rng = np.random.default_rng(0)
    a, b = (exactla.FpMatrix(3, rng.integers(0, 3, size=(4, 4))) for _ in range(2))
    for out in (a @ b, a + b, a - b, a.kron(b), a.T):
        assert out == exactla.FpMatrix(3, out.data)
    assert set(primes) == {2, 3}


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(render(), encoding="utf-8")
