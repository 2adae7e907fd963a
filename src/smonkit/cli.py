"""Command-line front end.

Exit codes are a stable contract: 0 pass/certified, 1 fail/refuted (or a
file rejected by validation), 2 usage or parse errors, 3 unknown verdicts.
All randomness flows from --seed; with --no-timing, suite reports are
byte-identical across reruns of the same configuration.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import bqa, exactla, formats, harness, layered
from .bqa import Algebra, Module
from .formats import ParseError
from .layered import ClassPredicate, LayeredModule, TensorContext

PASS, FAIL, USAGE, UNKNOWN = 0, 1, 2, 3


class CliError(Exception):
    def __init__(self, message: str, code: int = USAGE):
        super().__init__(message)
        self.code = code


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise CliError(f"{path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise CliError(f"{path}: not UTF-8 text (byte {exc.start})") from exc


def _resolve_ref(path: str, ref: str) -> str:
    if os.path.isabs(ref):
        return os.path.normpath(ref)
    return os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(path)), ref))


def _load_algebra(path: str, args, acyclic: bool = False) -> Algebra:
    """The algebra file at path, loaded once per invocation into ``args.algebras``."""
    key = (os.path.abspath(path), acyclic)
    if key not in args.algebras:
        try:
            args.algebras[key] = formats.parse_algebra(_read(path), prime_override=args.prime, acyclic=acyclic)
        except ParseError as exc:
            raise CliError(f"{path}: {exc}") from exc
    return args.algebras[key]


# the kind of file each parsed type comes from
_FILE_KIND = {Algebra: "algebra", Module: "module", LayeredModule: "layered"}


def load_file(
    path: str, args, kinds: tuple[str, ...], context: TensorContext | None = None
) -> tuple[Algebra | Module, list[str], str | None]:
    """The algebra, module or layered module in the file at path, read once.

    Returns (object, relation violations, the algebra reference the file
    names).  A file whose kind is not in ``kinds`` is a usage error; a
    layered file is read inside ``context`` when one is given.
    """

    def algebra_at(ref: str) -> Algebra:
        algebra = _load_algebra(_resolve_ref(path, ref), args)
        if context is not None and algebra is not context.base:
            raise CliError(f"{path}: base {ref} is not the base algebra of the first layered module")
        return algebra

    try:
        obj, ref = formats.parse_file(_read(path), algebra_at, args.prime, context)
    except ParseError as exc:
        raise CliError(f"{path}: {exc}") from exc
    if _FILE_KIND[type(obj)] not in kinds:
        raise CliError(f"{path}: {_FILE_KIND[type(obj)]} file given where a {' or '.join(kinds)} file is needed")
    return obj, ([] if isinstance(obj, Algebra) else bqa.check_module(obj)), ref


def _load_valid(path: str, args, kinds: tuple[str, ...]) -> Module:
    """The module or layered module in the file at path; a violated relation fails the command."""
    m, bad, _ = load_file(path, args, kinds)
    if bad:
        raise CliError(f"{path}: " + "; ".join(bad), FAIL)
    return m


def _predicate(args, base: Algebra) -> ClassPredicate:
    kind = args.pred.upper().replace("-", "_")
    if kind not in ClassPredicate.KINDS:
        raise CliError(f"unknown predicate '{args.pred}'")
    targets = []
    if kind == "PERP_OF":
        if not args.perp:
            raise CliError("--pred PERP_OF needs at least one --perp module file")
        for p in args.perp:
            m = _load_valid(p, args, ("module",))
            if m.algebra is not base:
                raise CliError(
                    f"{p}: PERP_OF module must live over the layered module's base algebra"
                )
            targets.append(m)
    return ClassPredicate(kind, args.bound, tuple(targets))


# -- commands -----------------------------------------------------------------


def cmd_check(args) -> int:
    worst = PASS
    for path in args.paths:
        obj, bad, _ = load_file(path, args, ("algebra", "module", "layered"))
        if bad:
            print(f"{path}: INVALID: " + "; ".join(bad))
            worst = max(worst, FAIL)
        else:
            print(f"{path}: ok ({_FILE_KIND[type(obj)]})")
    return worst


def cmd_membership(args) -> int:
    """smon or sepi: ``args.membership`` is the check the command runs."""
    x = _load_valid(args.path, args, ("layered",))
    res = args.membership(x, _predicate(args, x.context.base))
    print(res.render())
    return PASS if res.passed else FAIL


def cmd_coker(args) -> int:
    x = _load_valid(args.path, args, ("layered",))
    if not 1 <= args.vertex <= x.context.factor.quiver.n:
        raise CliError(f"vertex {args.vertex} outside the factor quiver")
    coker = layered.branch_cokernel(x, args.vertex).module
    sys.stdout.write(formats.serialize_module(coker, "<base algebra of " + args.path + ">"))
    return PASS


def cmd_ext(args) -> int:
    x, bad1, _ = load_file(args.first, args, ("module", "layered"))
    context = x.context if isinstance(x, LayeredModule) else None
    y, bad2, _ = load_file(args.second, args, ("module", "layered"), context=context)
    if type(x) is not type(y):
        raise CliError("ext needs two module files or two layered files")
    if bad1 or bad2:
        raise CliError("; ".join(bad1 + bad2), FAIL)
    if x.algebra is not y.algebra:
        raise CliError("the two modules resolve to different algebras")
    print(bqa.ext_dims(x, y, args.k)[args.k])
    return PASS


def cmd_cert(args) -> int:
    """gp or semigp: ``args.cert`` is the certificate the command draws."""
    m = _load_valid(args.path, args, ("module", "layered"))
    cert = args.cert(m, args.bound)
    print(cert.render())
    if cert.certified:
        return PASS
    return FAIL if cert.refuted else UNKNOWN


def cmd_tensor(args) -> int:
    m, bad1, ref = load_file(args.base_module, args, ("module",))
    u, bad2, _ = load_file(args.factor_module, args, ("module",))
    if bad1 or bad2:
        raise CliError("; ".join(bad1 + bad2), FAIL)
    if not u.algebra.quiver.is_acyclic():
        raise CliError("the factor module's algebra must sit over an acyclic quiver")
    ctx = TensorContext(m.algebra, u.algebra)
    x = layered.tensor(ctx, m, u)
    anchor = os.path.dirname(os.path.abspath(args.output)) if args.output else os.getcwd()
    text = formats.serialize_layered(x, os.path.relpath(_resolve_ref(args.base_module, ref), start=anchor))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return PASS


def cmd_split(args) -> int:
    x = _load_valid(args.path, args, ("layered",))
    try:
        t = layered.split_at_source(x, args.vertex)
    except layered.NotSource as exc:
        raise CliError(str(exc)) from exc
    print(f"source-vertex: {t.source_vertex}")
    print(f"reduced-factor-vertices: {t.reduced.factor.quiver.n}")
    print("y-part:")
    sys.stdout.write(formats.serialize_module(t.y_part, "<base>"))
    print("x-part:")
    sys.stdout.write(formats.serialize_layered(t.x_part, "<base>"))
    print("connecting-map:")
    for q in t.rad_paths:
        print(f"path {q}")
        for v in t.full_context.base.quiver.vertices:
            print(f"vertex {v}")
            for row in t.block(q, v).data:
                print(" ".join(str(int(e)) for e in row))
    rt = layered.assemble(t) == x
    print(f"round-trip: {'exact' if rt else 'MISMATCH'}")
    return PASS if rt else FAIL


def cmd_suite(args) -> int:
    if args.name not in harness.SUITE_NAMES:
        raise CliError(f"unknown suite '{args.name}' (choose from {', '.join(harness.SUITE_NAMES)})")
    if args.name == "nakayama":
        if len(args.context) != 1:
            raise CliError("the nakayama suite takes one algebra file")
        over = {"algebra": _load_algebra(args.context[0], args)}
    else:
        if len(args.context) != 2:
            raise CliError(f"suite {args.name} takes a base and a factor algebra file")
        base = _load_algebra(args.context[0], args)
        factor = _load_algebra(args.context[1], args, acyclic=True)
        over = {"context": TensorContext(base, factor)}
    cfg = harness.SuiteConfig(
        bound=args.bound,
        samples=args.samples,
        seed=args.seed,
        budget=args.budget,
        only_instance=args.only_instance,
        context_label="/".join(os.path.basename(path) for path in args.context),
        **over,
    )
    report = harness.run_suite(args.name, cfg)
    if args.format == "records":
        sys.stdout.write(report.to_records())
    else:
        sys.stdout.write(report.to_text(include_timing=not args.no_timing))
    return PASS if report.ok else FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smonkit",
        description="Separated monic representations over bound quivers: checks, certificates, suites.",
    )
    parser.add_argument("--prime", type=int, default=None, help="override the prime of loaded files")
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="validate algebra/module/layered files")
    c.add_argument("paths", nargs="+")
    c.set_defaults(fn=cmd_check)

    for name, membership, doc in (
        ("smon", layered.check_separated_monic, "separated monic membership"),
        ("sepi", layered.check_separated_epic, "separated epic membership"),
    ):
        c = sub.add_parser(name, help=doc)
        c.add_argument("path")
        c.add_argument("--pred", default="ALL", help="ALL|PROJ|INJ|GPROJ|SEMI_GP|PERP_OF")
        c.add_argument("--bound", type=int, default=8, help="certificate bound for bounded predicates")
        c.add_argument("--perp", nargs="*", default=[], help="module files for PERP_OF")
        c.set_defaults(fn=cmd_membership, membership=membership)

    c = sub.add_parser("coker", help="branch cokernel at a factor vertex")
    c.add_argument("path")
    c.add_argument("--vertex", type=int, required=True)
    c.set_defaults(fn=cmd_coker)

    c = sub.add_parser("ext", help="Ext dimension between two modules (or two layered modules)")
    c.add_argument("first")
    c.add_argument("second")
    c.add_argument("--k", type=int, required=True)
    c.set_defaults(fn=cmd_ext)

    for name, cert, doc in (
        ("gp", bqa.gp_cert, "bounded Gorenstein-projective certificate"),
        ("semigp", bqa.semi_gp_cert, "bounded semi-Gorenstein-projective certificate"),
    ):
        c = sub.add_parser(name, help=doc)
        c.add_argument("path")
        c.add_argument("--bound", type=int, default=8)
        c.set_defaults(fn=cmd_cert, cert=cert)

    c = sub.add_parser("tensor", help="tensor a base module with a factor module")
    c.add_argument("base_module")
    c.add_argument("factor_module")
    c.add_argument("-o", "--output", default=None)
    c.set_defaults(fn=cmd_tensor)

    c = sub.add_parser("split", help="split a layered module at a factor source vertex")
    c.add_argument("path")
    c.add_argument("--vertex", type=int, required=True)
    c.set_defaults(fn=cmd_split)

    c = sub.add_parser("suite", help="run a named verification suite")
    c.add_argument("name")
    c.add_argument("context", nargs="*", help="algebra file(s): base [factor]")
    c.add_argument("--bound", type=int, default=8)
    c.add_argument("--samples", type=int, default=100)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--budget", type=int, default=3)
    c.add_argument("--only-instance", type=int, default=None)
    c.add_argument("--format", choices=("text", "records"), default="text")
    c.add_argument("--no-timing", action="store_true")
    c.set_defaults(fn=cmd_suite)

    return parser


def _check_ranges(args) -> None:
    """Reject numeric arguments outside the range their command can use."""
    for name in ("k", "bound", "samples"):
        value = getattr(args, name, None)
        if value is not None and value < 0:
            raise CliError(f"--{name} must be >= 0, not {value}")
    budget = getattr(args, "budget", None)
    if budget is not None and budget < 1:
        raise CliError(f"--budget must be >= 1, not {budget}")
    only = getattr(args, "only_instance", None)
    # a nakayama run has one instance per indecomposable, checked by the suite
    if only is not None and args.name != "nakayama" and not 0 <= only < args.samples:
        raise CliError(f"--only-instance must lie in [0, {args.samples}), not {only}")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.algebras = {}  # each invocation reads its algebra files afresh
    try:
        _check_ranges(args)
        return args.fn(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (
        bqa.AlgebraMismatch,
        bqa.ShapeMismatch,
        exactla.PrimeMismatch,
        harness.NotNakayama,
        harness.NoSuchInstance,
        harness.BadContext,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE


if __name__ == "__main__":
    sys.exit(main())
