"""Reports pinned byte for byte against a stored copy.

The determinism tests compare two runs of the same code; this one compares
a fresh run with ``golden/reports.txt``, so a refactor that changes any
report line fails here.  The file holds, for each report, its text without
timing followed by its records.  Regenerate it only for an intended change
of report content:

    PYTHONPATH=src python tests/test_golden.py
"""

from pathlib import Path

from smonkit import harness

GOLDEN = Path(__file__).resolve().parent / "golden" / "reports.txt"
SUITES = ("ce", "adjunction", "smon-perp", "lz3", "pd-add", "triangular", "weakly-gorenstein")
CONTEXTS = (("kx2", "chain3"), ("chain3", "a2"))


def _reports():
    for base, factor in CONTEXTS:
        ctx = harness.standard_context(base, factor)
        for name in SUITES:
            cfg = harness.SuiteConfig(
                context=ctx, bound=4, samples=8, seed=13, context_label=f"{base}/{factor}"
            )
            yield harness.run_suite(name, cfg)
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


def render() -> str:
    return "".join(r.to_text(include_timing=False) + r.to_records() for r in _reports())


def test_reports_match_golden():
    assert render() == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(render(), encoding="utf-8")
