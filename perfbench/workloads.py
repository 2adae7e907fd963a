"""The benchmark's workloads: inputs made from a seed, the timed operation, and output checks.

A workload is run as passes, each in a fresh process.  ``pass_ops(k)``
builds pass k's inputs, algebras and contexts (not timed), ``run(op)`` is
one timed operation, and ``check(op, output)`` verifies its result
afterwards (not timed) and returns (units attempted, units failed).
"""

from __future__ import annotations

import ast
import hashlib

import numpy as np

from smonkit import bqa, exactla, formats, harness, layered

NAKAYAMA_BOUND = 60
SUITES = ("ce", "adjunction", "smon-perp", "lz3", "pd-add", "triangular", "weakly-gorenstein")
SUITE_CONTEXTS = (("kx2", "chain3"), ("chain3", "a2"))
SUITE_BOUND = 8
SUITE_SAMPLES = 50


def pass_seed(seed: int, k: int) -> int:
    """A seed for pass k, independent across passes and across run seeds."""
    return int(np.random.SeedSequence(entropy=seed, spawn_key=(k,)).generate_state(1)[0])


def _extra(report, prefix: str) -> str | None:
    for line in report.extra:
        if line.startswith(prefix):
            return line[len(prefix) :].strip()
    return None


class Nakayama:
    """The headline run: the nakayama suite on Kupisch series (17, 18, 18) over F_2 at bound 60."""

    unit = "run"

    def __init__(self, seed: int) -> None:
        """The headline run has no random input, so the seed is not used."""

    def pass_ops(self, k: int) -> list:
        return [harness.nakayama_17_18_18(p=2)]

    def run(self, algebra):
        cfg = harness.SuiteConfig(algebra=algebra, bound=NAKAYAMA_BOUND, context_label="kupisch-17-18-18")
        return harness.run_suite("nakayama", cfg)

    def text(self, report) -> str:
        return report.to_text(include_timing=False)

    def check(self, algebra, report) -> tuple[int, int]:
        evidence = _extra(report, "injective-dimension-evidence:") or ""
        sides = evidence.split()
        facts = [
            len(report.records) == 53,
            all(r.passed for r in report.records),
            (_extra(report, "kupisch:") or "").endswith("indecomposables: 53"),
            _extra(report, "nonprojective-gp:") == "5 [(2, 3), (2, 6), (2, 9), (2, 12), (2, 15)]",
            _extra(report, "core-size:") == "6",
            _extra(report, "pairwise-distinguishable:") == "True",
            len(sides) == 4 and sides[0] == "left" and sides[2] == "right",
            not any(s.startswith("FINITE") for s in sides),
        ]
        return 1, 0 if all(facts) else 1


class Suites:
    """The seven sampled suites on both stock contexts over F_2 at bound 8, 50 samples each.

    One operation is the whole acceptance run of 14 suite reports, the unit
    a caller waits for; it counts as 700 instances.
    """

    unit = "instance"

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def pass_ops(self, k: int) -> list:
        seed = pass_seed(self.seed, k)
        contexts = [(f"{b}/{f}", harness.standard_context(b, f)) for b, f in SUITE_CONTEXTS]
        return [
            [
                (name, harness.SuiteConfig(context=ctx, bound=SUITE_BOUND, samples=SUITE_SAMPLES, seed=seed, context_label=label))
                for name in SUITES
                for label, ctx in contexts
            ]
        ]

    def run(self, calls) -> list:
        return [harness.run_suite(name, cfg) for name, cfg in calls]

    def text(self, reports) -> str:
        return "".join(r.to_text(include_timing=False) for r in reports)

    def check(self, calls, reports) -> tuple[int, int]:
        missing = sum(max(SUITE_SAMPLES - len(r.records), 0) for r in reports)
        return SUITE_SAMPLES * len(calls), missing + sum(r.failures for r in reports)


# -- cold queries over F_3 ------------------------------------------------------------

QUERY_PRIME = 3
QUERY_BOUND = 6
QUERY_KMAX = 3
QUERY_BUDGET = 3
QUERIES_PER_KIND = 50
MODULE_KINDS = ("gp", "semigp", "ext")
LAYERED_KINDS = ("smon", "sepi", "coker", "split", "lext")
KINDS = MODULE_KINDS + ("tensor",) + LAYERED_KINDS
BASE_REF = "A.alg"
VERDICTS = ("CERTIFIED_UP_TO", "REFUTED", "UNKNOWN")


def _invertible(p: int, n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """A random matrix in GL_n(F_p) and its inverse."""
    eye = np.eye(n, dtype=np.int64)
    while True:
        g = rng.integers(0, p, size=(n, n))
        inv = exactla.solve_many(exactla.FpMatrix(p, g), eye)
        if inv is not None:
            return g, inv


def _conjugate(p: int, mat: np.ndarray, target: np.ndarray, source_inv: np.ndarray) -> np.ndarray:
    return (target @ mat @ source_inv) % p


def _rebase_module(m: bqa.Module, rng: np.random.Generator) -> tuple[bqa.Module, dict]:
    """An isomorphic copy of m in a random basis at every vertex."""
    p = m.algebra.p
    gs = {v: _invertible(p, m.dim(v), rng) for v in m.algebra.quiver.vertices}
    mats = {
        a.name: exactla.FpMatrix(p, _conjugate(p, m.mats[a.name].data, gs[a.target][0], gs[a.source][1]))
        for a in m.algebra.quiver.arrows
    }
    return bqa.Module(m.algebra, m.dims, mats), gs


def _rebase_layered(x: layered.LayeredModule, rng: np.random.Generator) -> layered.LayeredModule:
    """An isomorphic copy of x in a random basis at every point (branch, base vertex)."""
    ctx = x.context
    p = ctx.p
    branches, bases = [], {}
    for i in ctx.factor.quiver.vertices:
        branch, gs = _rebase_module(x.branch(i), rng)
        branches.append(branch)
        bases[i] = gs
    maps = {}
    for a in ctx.factor.quiver.arrows:
        h = x.arrow_maps[a.name]
        parts = tuple(
            exactla.FpMatrix(p, _conjugate(p, h.mat(v).data, bases[a.target][v][0], bases[a.source][v][1]))
            for v in ctx.base.quiver.vertices
        )
        maps[a.name] = bqa.Hom(branches[a.source - 1], branches[a.target - 1], parts, check=False)
    return layered.LayeredModule(ctx, tuple(branches), maps, check=False)


def _parse_modules(op) -> tuple[list, list[str]]:
    algebra = formats.parse_algebra(op["algebra"])
    mods, bad = [], []
    for text in op["inputs"]:
        m, _, violations = formats.parse_module(text, algebra)
        mods.append(m)
        bad += violations
    return mods, bad


def _parse_layered(op) -> tuple[bqa.Algebra, list, list[str]]:
    base = formats.parse_algebra(op["algebra"])
    xs, bad = [], []
    for text in op["inputs"]:
        x, _, violations = formats.parse_layered(text, base, context=xs[0].context if xs else None)
        xs.append(x)
        bad += violations
    return base, xs, bad


class Queries:
    """Separate parse -> query -> serialize operations over F_3 on both stock contexts.

    Every input is a random module (or layered module) written in a random
    basis, and no input text repeats within a pass, which runs in a process
    of its own, so nothing keyed on a module's matrices can be reused from
    an earlier query.
    """

    unit = "query"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.contexts = [harness.standard_context(b, f, p=QUERY_PRIME) for b, f in SUITE_CONTEXTS]
        self.algebras = [self.contexts[0].base, self.contexts[0].factor, self.contexts[1].factor]
        self.seen: set[bytes] = set()

    def pass_ops(self, k: int) -> list:
        rng = np.random.default_rng(pass_seed(self.seed, k))
        kinds = [kind for kind in KINDS for _ in range(QUERIES_PER_KIND)]
        rng.shuffle(kinds)
        return [self._fresh(kind, rng) for kind in kinds]

    def _fresh(self, kind: str, rng: np.random.Generator) -> dict:
        for _ in range(1000):
            op = self._draw(kind, rng)
            key = hashlib.sha1(repr(sorted(op.items())).encode()).digest()
            if key not in self.seen:
                self.seen.add(key)
                return op
        raise RuntimeError(f"no fresh {kind} input in 1000 draws")

    def _module_text(self, algebra: bqa.Algebra, rng: np.random.Generator) -> str:
        m = bqa.random_module(algebra, QUERY_BUDGET, int(rng.integers(0, 2**62)))
        return formats.serialize_module(_rebase_module(m, rng)[0], BASE_REF)

    def _draw(self, kind: str, rng: np.random.Generator) -> dict:
        if kind in MODULE_KINDS:
            algebra = self.algebras[int(rng.integers(0, len(self.algebras)))]
            count = 2 if kind == "ext" else 1
            return {
                "kind": kind,
                "algebra": formats.serialize_algebra(algebra),
                "inputs": tuple(self._module_text(algebra, rng) for _ in range(count)),
            }
        ctx = self.contexts[int(rng.integers(0, len(self.contexts)))]
        op = {"kind": kind, "algebra": formats.serialize_algebra(ctx.base)}
        if kind == "tensor":
            op["factor"] = formats.serialize_algebra(ctx.factor)
            op["inputs"] = (self._module_text(ctx.base, rng), self._module_text(ctx.factor, rng))
            return op
        samples = [harness.sample_layered_mixed(ctx, rng, QUERY_BUDGET) for _ in range(2 if kind == "lext" else 1)]
        op["planted"] = samples[0][1]
        op["inputs"] = tuple(formats.serialize_layered(_rebase_layered(x, rng), BASE_REF) for x, _ in samples)
        if kind == "coker":
            op["vertex"] = int(rng.integers(1, ctx.factor.quiver.n + 1))
        elif kind == "split":
            op["vertex"] = max(ctx.factor.quiver.source_vertices())
        return op

    def run(self, op) -> str:
        kind = op["kind"]
        if kind in MODULE_KINDS:
            mods, bad = _parse_modules(op)
            if bad:
                return "INVALID " + "; ".join(bad)
            if kind == "gp":
                return bqa.gp_cert(mods[0], QUERY_BOUND).render()
            if kind == "semigp":
                return bqa.semi_gp_cert(mods[0], QUERY_BOUND).render()
            return str(bqa.ext_dims(mods[0], mods[1], QUERY_KMAX))
        if kind == "tensor":
            base = formats.parse_algebra(op["algebra"])
            factor = formats.parse_algebra(op["factor"])
            m, _, bad1 = formats.parse_module(op["inputs"][0], base)
            u, _, bad2 = formats.parse_module(op["inputs"][1], factor)
            if bad1 or bad2:
                return "INVALID " + "; ".join(bad1 + bad2)
            x = layered.tensor(layered.TensorContext(base, factor), m, u)
            return formats.serialize_layered(x, BASE_REF)
        _, xs, bad = _parse_layered(op)
        if bad:
            return "INVALID " + "; ".join(bad)
        x = xs[0]
        if kind == "smon":
            return layered.check_separated_monic(x, layered.ClassPredicate.all_modules()).render()
        if kind == "sepi":
            return layered.check_separated_epic(x, layered.ClassPredicate.all_modules()).render()
        if kind == "coker":
            return formats.serialize_module(layered.branch_cokernel(x, op["vertex"]).module, BASE_REF)
        if kind == "split":
            t = layered.split_at_source(x, op["vertex"])
            return formats.serialize_module(t.y_part, BASE_REF) + formats.serialize_layered(t.x_part, BASE_REF)
        return str(layered.layered_ext_dims(x, xs[1], QUERY_KMAX))

    def text(self, output: str) -> str:
        return output

    def check(self, op, output: str) -> tuple[int, int]:
        return 1, 0 if self._correct(op, output) else 1

    def _correct(self, op, output: str) -> bool:
        kind = op["kind"]
        if output.startswith("INVALID"):
            return False
        if kind in MODULE_KINDS:
            mods, _ = _parse_modules(op)
            if [formats.serialize_module(m, BASE_REF) for m in mods] != list(op["inputs"]):
                return False
            if kind == "ext":
                dims = ast.literal_eval(output)
                return len(dims) == QUERY_KMAX + 1 and dims[0] == bqa.hom_dim(mods[0], mods[1])
            if not output.startswith(VERDICTS):
                return False
            # a gp certificate includes the semi-gp one; any verdict other than a refutation
            # or UNKNOWN is taken as certified, so a stronger kind of proof still passes
            if kind == "gp" and not output.startswith(("REFUTED", "UNKNOWN")):
                return bqa.semi_gp_cert(mods[0], QUERY_BOUND).certified
            return True
        if kind == "tensor":
            base = formats.parse_algebra(op["algebra"])
            factor = formats.parse_algebra(op["factor"])
            for text, algebra in zip(op["inputs"], (base, factor)):
                if formats.serialize_module(formats.parse_module(text, algebra)[0], BASE_REF) != text:
                    return False
            return _reparses_layered(output, base)
        base, xs, _ = _parse_layered(op)
        if [formats.serialize_layered(x, BASE_REF) for x in xs] != list(op["inputs"]):
            return False
        if kind == "smon":
            # planted samples are separated monic by construction, planted negatives are not
            expect = {"planted-positive": "PASS", "planted-negative": "FAIL"}.get(op["planted"])
            return output.startswith(expect or ("PASS", "FAIL"))
        if kind == "sepi":
            return output.startswith(("PASS", "FAIL"))
        if kind == "coker":
            return _reparses_module(output, base)
        if kind == "split":
            cut = output.index(formats.LAYERED_HEADER)
            return _reparses_module(output[:cut], base) and _reparses_layered(output[cut:], base)
        dims = ast.literal_eval(output)
        return len(dims) == QUERY_KMAX + 1 and dims[0] == layered.layered_hom_dim(xs[0], xs[1])


def _reparses_module(text: str, algebra: bqa.Algebra) -> bool:
    m, _, bad = formats.parse_module(text, algebra)
    return not bad and formats.serialize_module(m, BASE_REF) == text


def _reparses_layered(text: str, base: bqa.Algebra) -> bool:
    x, _, bad = formats.parse_layered(text, base)
    return not bad and formats.serialize_layered(x, BASE_REF) == text


WORKLOADS = {"nakayama-f2": Nakayama, "suites-f2": Suites, "queries-f3": Queries}
