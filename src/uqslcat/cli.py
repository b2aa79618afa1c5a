"""Command-line interface.

Module labels use the grammar  X+:s  W-:s:n  M+:s:n  O+:s:n:z1/z2  P+:s
(plus ``Reg`` for the left regular module).  The z components are
integer-coefficient polynomials in q with no '/' inside; scale a point
of the projective line to clear denominators.  Exit codes: 0 success,
1 domain error, 2 internal classification failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import braiding, category, kronecker, qmodules
from .algebra import center_basis, verify_hopf
from .category import ClassificationError, IndecLabel
from .cyclotomic import json_field, parse_cyc
from .qmodules import CP1, QMod, family_label, regular_module, verify_module

DEFAULT_MAX_P = 6
# The largest n a W, M or O label may state: the module has dimension about
# n p and dense E and F matrices, so n = 100000 at p = 2 runs out of memory,
# while building M-:3:100 at p = 6 (dimension 597) takes 0.25 s (2-vCPU
# x86-64 VM, Python 3.11).
MAX_FAMILY_SIZE = 100
# The largest Ext degree, resolution length or Yoneda word length: run time grows about
# cubically, so resolve --p 6 --length 40 takes 10 s of CPU, --length 20 2.2 s and a
# 20-letter yoneda word at p = 6 up to 4.2 s (2-vCPU x86-64 VM, Python 3.11).
MAX_DEGREE = 20


def _check_degree(what: str, n: int) -> None:
    if n > MAX_DEGREE:
        raise ValueError(f"{what} {n} exceeds the bound {MAX_DEGREE}")


def _max_p(args) -> int:
    bound, what = getattr(args, "max_p", None), "--max-p"
    if bound is None:
        env, what = os.environ.get("UQSLCAT_MAX_P") or str(DEFAULT_MAX_P), "UQSLCAT_MAX_P"
        try:
            bound = int(env)
        except ValueError:
            raise ValueError(f"UQSLCAT_MAX_P must be an integer, got {env!r:.40}") from None
    if bound < 2:
        raise ValueError(f"{what} must be at least 2, got {bound}")
    return bound


def _check_p(p: int, args) -> None:
    bound = _max_p(args)
    if p < 2:
        raise ValueError("p must be at least 2")
    if p > bound:
        raise ValueError(
            f"p = {p} exceeds the bound {bound}; raise it with --max-p or UQSLCAT_MAX_P"
        )


def parse_label(text: str, p: int) -> IndecLabel:
    head, _, rest = text.partition(":")
    if len(head) != 2 or head[0] not in "XWMOP" or head[1] not in "+-":
        raise ValueError(f"bad family label {text!r}: expected e.g. X+:1, W-:1:2, O+:1:1:1/0, P+:1")
    fam = head[0]
    a = 1 if head[1] == "+" else -1
    parts = rest.split(":") if rest else []

    def need(k):
        if len(parts) != k:
            raise ValueError(f"label {text!r} needs {k} parameter(s) after the family")

    def size(n, least):
        if not least <= n <= MAX_FAMILY_SIZE:
            raise ValueError(f"family {fam} needs {least} <= n <= {MAX_FAMILY_SIZE}, got n={n}")

    if fam == "X":
        need(1)
        s = int(parts[0])
        if not 1 <= s <= p:
            raise ValueError(f"irreducible needs 1 <= s <= p, got s={s} (p={p})")
        return IndecLabel("X", a, s)
    if fam == "P":
        need(1)
        s = int(parts[0])
        if not 1 <= s <= p - 1:
            raise ValueError(f"projective needs 1 <= s <= p-1, got s={s} (p={p})")
        return IndecLabel("P", a, s)
    if fam in "WM":
        need(2)
        s, n = int(parts[0]), int(parts[1])
        if not 1 <= s <= p - 1:
            raise ValueError(f"family {fam} needs 1 <= s <= p-1, got s={s} (p={p})")
        size(n, 2)
        return IndecLabel(fam, a, s, n)
    need(3)
    s, n = int(parts[0]), int(parts[1])
    if not 1 <= s <= p - 1:
        raise ValueError(f"family O needs 1 <= s <= p-1, got s={s} (p={p})")
    size(n, 1)
    zparts = parts[2].split("/")
    if len(zparts) != 2:
        raise ValueError("z must be given as z1/z2 with '/'-free components")
    z1 = parse_cyc(zparts[0], 2 * p)
    z2 = parse_cyc(zparts[1], 2 * p)
    if not z1 and not z2:
        raise ValueError("z components must not both be zero")
    return IndecLabel("O", a, s, n, CP1(z1, z2))


def build_module(args) -> QMod:
    p = args.p
    _check_p(p, args)
    if args.family == "Reg":
        return regular_module(p)
    return parse_label(args.family, p).rebuild(p)


def load_module(args) -> QMod:
    if getattr(args, "input", None):
        with open(args.input) as fh:
            data = json.load(fh)
        p = json_field(data, "p", int, 2)
        if getattr(args, "p", None) and args.p != p:
            raise ValueError(f"file has p={p}, flag has p={args.p}")
        _check_p(p, args)  # before the field of order 2p is built
        return QMod.from_json(data)
    if getattr(args, "family", None):
        return build_module(args)
    raise ValueError("give a module with --family or --input")


def emit(payload: dict, args, text_lines) -> None:
    if getattr(args, "output", None):
        with open(args.output, "w") as fh:
            json.dump(payload, fh, indent=1)
    if args.format == "json":
        print(json.dumps(payload, indent=1))
    else:
        for line in text_lines:
            print(line)


def cmd_build(args) -> int:
    m = build_module(args)
    payload = m.to_json()
    wc = qmodules.weight_character(m)
    char = ", ".join(f"{w.to_string()}: {k}" for w, k in sorted(wc.items(), key=lambda t: t[0].to_string()))
    emit(payload, args, [f"{args.family} at p={args.p}: dim {m.dim}", f"weights: {char}"])
    return 0


def cmd_verify(args) -> int:
    if args.hopf:
        _check_p(args.p, args)
        rep = verify_hopf(args.p)
        payload = {"p": args.p, "axioms": rep.axioms, "passed": rep.passed, "failures": rep.failures}
        lines = [f"{k}: {'pass' if v else 'FAIL'}" for k, v in rep.axioms.items()]
        lines.append("all axioms pass" if rep.passed else "FAILURES: " + "; ".join(rep.failures))
        emit(payload, args, lines)
        return 0 if rep.passed else 2
    m = load_module(args)
    chk = verify_module(m)
    payload = {"p": m.p, "dim": m.dim, "ok": chk.ok, "violations": chk.violations}
    lines = [f"dim {m.dim}: " + ("all module relations hold" if chk.ok else "violated: " + "; ".join(chk.violations))]
    emit(payload, args, lines)
    return 0 if chk.ok else 1


def cmd_decompose(args) -> int:
    m = load_module(args)
    report = category.decompose(m)
    payload = report.to_json(with_certificate=args.certificate)
    lines = [f"dim {m.dim} decomposes as:"]
    for lbl, mult in report.entries:
        lines.append(f"  {lbl}  x {mult}")
    emit(payload, args, lines)
    return 0


def cmd_blocks(args) -> int:
    m = load_module(args)
    pieces = category.block_decompose(m)
    payload = {"p": m.p, "blocks": [{"s": bp.s, "dim": bp.module.dim} for bp in pieces]}
    lines = [f"block s={bp.s}: dim {bp.module.dim}" for bp in pieces]
    emit(payload, args, lines or ["zero module"])
    return 0


def cmd_hom(args) -> int:
    _check_p(args.p, args)
    src = parse_label(args.src, args.p).rebuild(args.p)
    dst = parse_label(args.dst, args.p).rebuild(args.p)
    basis = category.hom_space(src, dst)
    payload = {"p": args.p, "from": args.src, "to": args.dst, "dim": basis.dim}
    if args.maps:
        payload["maps"] = [
            [[x.to_json() for x in row] for row in phi] for phi in basis.maps
        ]
    emit(payload, args, [str(basis.dim)])
    return 0


def _parse_irred(text: str, p: int) -> tuple[int, int]:
    lbl = parse_label(text, p)
    if lbl.family != "X":
        raise ValueError("Ext endpoints must be irreducibles X+:s / X-:s")
    return (lbl.a, lbl.s)


def cmd_ext(args) -> int:
    _check_p(args.p, args)
    _check_degree("degree", args.deg)
    src = _parse_irred(args.src, args.p)
    dst = _parse_irred(args.dst, args.p)
    d = category.ext_dim(args.p, src, dst, args.deg)
    emit({"p": args.p, "from": args.src, "to": args.dst, "deg": args.deg, "dim": d},
         args, [str(d)])
    return 0


def cmd_resolve(args) -> int:
    _check_p(args.p, args)
    _check_degree("length", args.length)
    lbl = parse_label(args.family, args.p)
    if lbl.family != "X":
        raise ValueError("resolutions are computed for irreducibles")
    res = category.minimal_resolution(lbl.rebuild(args.p), args.length)
    payload = {
        "p": args.p,
        "module": args.family,
        "terms": [
            {
                "dim": t.dim,
                "content": [
                    {"top": family_label("X", a, s), "mult": mult}
                    for ((a, s), mult) in content
                ],
            }
            for t, content in zip(res.terms, res.content)
        ],
    }
    lines = []
    for k, (t, content) in enumerate(zip(res.terms, res.content)):
        what = " + ".join(
            f"{mult} x P({family_label('X', a, s)})" for ((a, s), mult) in content
        ) or "0"
        lines.append(f"term {k}: dim {t.dim} = {what}")
    emit(payload, args, lines)
    return 0


def cmd_yoneda(args) -> int:
    _check_p(args.p, args)
    p, s = args.p, args.s
    if not 1 <= s <= p - 1:
        raise ValueError(f"Ext generators need 1 <= s <= p-1, got s={s}")
    tokens = [t.strip() for t in args.word.split(",") if t.strip()]
    if not tokens:
        raise ValueError("empty generator word")
    _check_degree("word length", len(tokens))
    gens = category.ext_basis_x(p, 1, s)
    def gen_of(tok: str):
        if len(tok) != 4 or tok[0] != "x" or tok[1] not in "+-" or tok[2] != ":" or tok[3] not in "12":
            raise ValueError(f"bad generator {tok!r}: expected x+:1, x+:2, x-:1 or x-:2")
        return gens[(1 if tok[1] == "+" else -1, int(tok[3]))]
    result = gen_of(tokens[-1])
    for tok in reversed(tokens[:-1]):
        result = category.yoneda(gen_of(tok), result)
    payload = {
        "p": p,
        "s": s,
        "word": tokens,
        "degree": result.degree,
        "source": family_label("X", *result.source),
        "target": family_label("X", *result.target),
        "zero": result.is_zero(),
    }
    emit(payload, args, [
        f"degree {result.degree} class X -> {payload['target']} over source {payload['source']}: "
        + ("zero" if result.is_zero() else "nonzero")
    ])
    return 0


def cmd_kron_classify(args) -> int:
    with open(args.input) as fh:
        rep = kronecker.QuiverRep.from_json(json.load(fh))
    decomp = kronecker.classify(rep)
    entries = []
    lines = []
    for (kind, n, z), mult in decomp.entries:
        entry = {"kind": kind, "n": n, "mult": mult}
        if z is not None:
            entry["z"] = z.to_json()
        entries.append(entry)
        zs = f" at z={z!r}" if z is not None else ""
        lines.append(f"{kind} n={n}{zs}  x {mult}")
    emit({"d0": rep.d0, "d1": rep.d1, "entries": entries}, args, lines or ["zero representation"])
    return 0


def cmd_braid_check(args) -> int:
    if args.p != 2:
        raise ValueError("braid-check is defined for p = 2 only")
    quasi = braiding.verify_quasitriangular(2)
    rib = braiding.verify_ribbon(2)
    scalars = {k: v.to_string() for k, v in braiding.ribbon_scalars(2).items()}
    payload = {"quasitriangular": quasi, "ribbon": rib, "ribbon_scalars": scalars}
    lines = [f"{k}: {'pass' if v else 'FAIL'}" for k, v in {**quasi, **rib}.items()]
    lines += [f"ribbon scalar on {k}: {v}" for k, v in scalars.items()]
    emit(payload, args, lines)
    return 0 if all(quasi.values()) and all(rib.values()) else 2


def cmd_center(args) -> int:
    _check_p(args.p, args)
    basis = center_basis(args.p)
    payload = {"p": args.p, "dim": len(basis)}
    if args.basis:
        payload["basis"] = [z.to_json() for z in basis]
    emit(payload, args, [str(len(basis))])
    return 0


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="uqslcat",
        description="Exact computations in the module category of the restricted quantum sl(2) at q = exp(i*pi/p)",
    )
    sub = ap.add_subparsers(dest="verb", required=True)

    def common(sp, module_input=False, needs_p=True):
        if needs_p:
            sp.add_argument("--p", type=int, required=not module_input, default=None)
        sp.add_argument("--format", choices=("text", "json"), default="text")
        sp.add_argument("--output", help="write the JSON payload to a file")
        sp.add_argument("--max-p", type=int, default=None, help="override the p bound")
        if module_input:
            sp.add_argument("--family", help="module label, e.g. X+:1, O-:1:2:1/q, Reg")
            sp.add_argument("--input", help="module JSON file")

    sp = sub.add_parser("build", help="construct a module and serialize it")
    common(sp)
    sp.add_argument("--family", required=True)
    sp.set_defaults(fn=cmd_build)

    sp = sub.add_parser("verify", help="check module relations or the Hopf axioms")
    common(sp, module_input=True)
    sp.add_argument("--hopf", action="store_true", help="verify the Hopf-algebra axioms instead")
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("decompose", help="decompose into indecomposables")
    common(sp, module_input=True)
    sp.add_argument("--certificate", action="store_true", help="include the isomorphism certificate")
    sp.set_defaults(fn=cmd_decompose)

    sp = sub.add_parser("blocks", help="split into Casimir blocks")
    common(sp, module_input=True)
    sp.set_defaults(fn=cmd_blocks)

    sp = sub.add_parser("hom", help="dimension (and basis) of a Hom space")
    common(sp)
    sp.add_argument("--from", dest="src", required=True)
    sp.add_argument("--to", dest="dst", required=True)
    sp.add_argument("--maps", action="store_true", help="include the intertwiner matrices")
    sp.set_defaults(fn=cmd_hom)

    sp = sub.add_parser("ext", help="dimension of an Ext group between irreducibles")
    common(sp)
    sp.add_argument("--from", dest="src", required=True)
    sp.add_argument("--to", dest="dst", required=True)
    sp.add_argument("--deg", type=int, required=True)
    sp.set_defaults(fn=cmd_ext)

    sp = sub.add_parser("resolve", help="minimal projective resolution of an irreducible")
    common(sp)
    sp.add_argument("--family", required=True)
    sp.add_argument("--length", type=int, default=5)
    sp.set_defaults(fn=cmd_resolve)

    sp = sub.add_parser("yoneda", help="Yoneda product of Ext generators, e.g. --word x-:1,x+:2")
    common(sp)
    sp.add_argument("--s", type=int, required=True, help="block label via X+_s")
    sp.add_argument("--word", required=True, help="comma-separated generators, applied right to left")
    sp.set_defaults(fn=cmd_yoneda)

    sp = sub.add_parser("kron-classify", help="classify a Kronecker quiver representation")
    common(sp, needs_p=False)
    sp.add_argument("--input", required=True)
    sp.set_defaults(fn=cmd_kron_classify)

    sp = sub.add_parser("braid-check", help="verify the R-matrix and ribbon structure (p = 2)")
    common(sp)
    sp.set_defaults(fn=cmd_braid_check)

    sp = sub.add_parser("center", help="dimension (and basis) of the center")
    common(sp)
    sp.add_argument("--basis", action="store_true")
    sp.set_defaults(fn=cmd_center)

    return ap


def run(argv) -> int:
    ap = _parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code else 0
    try:
        return args.fn(args)
    except ClassificationError as exc:
        print(f"internal classification failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
