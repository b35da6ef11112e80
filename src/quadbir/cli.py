"""Command-line interface.

Subcommands: hilbert, gb, map, verify, enumerate, table, coindex,
invariants.  Global flags: --budget (step budget for basis computations,
default 8,000,000), --format {text|json}.
The exit status is 0 exactly when no check failed, 1 on a failure, and
2 on usage, parse or input errors.  Each command imports the layers it
uses, so `hilbert` or `gb` loads neither the invariant engine nor the
corpus.
"""

from __future__ import annotations

import argparse
import json
import sys

# every command needs the kernel; the layers above it are imported by
# the commands that use them
from .groebner import BudgetExceeded, StepBudget, buchberger
from .polyring import DEGREVLEX, LEX, PolyParseError, format_poly


def _emit(args, payload_text: str, payload_json) -> None:
    if args.format == "json":
        print(json.dumps(payload_json, indent=2, sort_keys=True))
    else:
        print(payload_text)


def _hd_dict(hd) -> dict:
    return {
        "dim": hd.dim_proj,
        "degree": hd.degree,
        "sectional_genus": hd.sectional_genus,
        "chi": hd.chi,
        "hilbert_polynomial": hd.hp_str(),
    }


def cmd_hilbert(args) -> int:
    from .hilbert import hilbert_data
    from .ideal_io import read_ideal

    I = read_ideal(args.ideal_file)
    hd = hilbert_data(I, budget=StepBudget(args.budget))
    text = (
        f"dim {hd.dim_proj}  degree {hd.degree}  "
        f"sectional_genus {hd.sectional_genus}  chi {hd.chi}\n"
        f"hilbert polynomial: {hd.hp_str()}"
    )
    _emit(args, text, _hd_dict(hd))
    return 0


def cmd_gb(args) -> int:
    from .ideal_io import read_ideal

    I = read_ideal(args.ideal_file)
    order = LEX if args.order == "lex" else DEGREVLEX
    gb = buchberger(I, order, StepBudget(args.budget))
    lines = [format_poly(g, order) for g in gb]
    _emit(args, "\n".join(lines), {"order": args.order, "basis": lines})
    return 0


def cmd_map(args) -> int:
    from .hilbert import hilbert_data
    from .ideal_io import read_ideal
    from .maps import HeavyComputation, ambient_gap, image_ideal, map_from_ideal, minor_ideal

    I = read_ideal(args.ideal_file)
    budget = StepBudget(args.budget)
    F = map_from_ideal(I)
    out: dict = {
        "source_dim": F.source_dim,
        "target_dim": F.target_dim,
        "ambient_gap": ambient_gap(F),
        "components": [format_poly(c) for c in F.components],
    }
    base = hilbert_data(I, budget=budget)
    out["base_locus"] = _hd_dict(base)
    if args.image or args.sing:
        try:
            S = image_ideal(F, budget)
            out["image"] = {
                "generators": [format_poly(g) for g in S.generators],
            }
            hs = hilbert_data(S, budget=budget)
            out["image"].update(_hd_dict(hs))
            if args.sing and S.is_zero():
                # a dominant map: the image is all of P^N, which is smooth
                out["singular_locus"] = {"dim": -1}
            elif args.sing:
                codim = S.ring.nvars - 1 - hs.dim_proj
                hsing = hilbert_data(minor_ideal(S, codim), budget=budget)
                out["singular_locus"] = _hd_dict(hsing)
        except (BudgetExceeded, HeavyComputation) as e:
            out["image"] = {"status": "SKIPPED_HEAVY", "reason": str(e)}
    text_lines = [
        f"map P^{F.source_dim} -> P^{F.target_dim}  (ambient gap {out['ambient_gap']})",
        "base locus: "
        + " ".join(f"{k}={v}" for k, v in out["base_locus"].items()),
    ]
    if "image" in out:
        text_lines.append("image: " + json.dumps(out["image"], sort_keys=True))
    if "singular_locus" in out:
        text_lines.append(
            "singular locus: " + json.dumps(out["singular_locus"], sort_keys=True)
        )
    _emit(args, "\n".join(text_lines), out)
    return 0


def cmd_verify(args) -> int:
    from .corpus import CORPUS, reports_to_json, reports_to_text, verify_all, verify_example

    if args.all:
        reports = verify_all(args.budget)
    else:
        if not args.example:
            print("verify needs an example name or --all", file=sys.stderr)
            return 2
        if args.example not in CORPUS:
            print(
                f"error: unknown example {args.example!r}; known: {', '.join(sorted(CORPUS))}",
                file=sys.stderr,
            )
            return 2
        reports = [verify_example(args.example, StepBudget(args.budget))]
    if args.format == "json":
        print(reports_to_json(reports, timings=args.timings))
    else:
        print(reports_to_text(reports, timings=args.timings))
    return 1 if any(r.status == "FAIL" for r in reports) else 0


def _row_dict(row) -> dict:
    return {
        "r": row.r,
        "n": row.n,
        "a": row.a,
        "lambda": row.lam,
        "g": row.g,
        "structure": row.structure,
        "d": row.d,
        "Delta": row.Delta,
        "c": row.c,
        "existence": row.existence,
        "eps": row.eps,
        "chi": row.chi,
        "struck_by": row.struck_by,
    }


def cmd_enumerate(args) -> int:
    from .classify import enumerate_r1, enumerate_r2, enumerate_r3, enumerate_r4

    r = args.r
    if r == 1:
        rows = enumerate_r1()
        kept = [x for x in rows if x.struck_by is None]
        text = ["admissible numeric cases:"]
        for row in rows:
            mark = f"  struck by {row.struck_by}" if row.struck_by else ""
            text.append(f"  {row.key()}{mark}")
        text.append(f"surviving cases: {len(kept)}")
        _emit(args, "\n".join(text), [_row_dict(x) for x in rows])
        return 0
    if r in (2, 3):
        rows = enumerate_r2() if r == 2 else enumerate_r3()
        text = [f"{len(rows)} cases:"]
        for row in rows:
            text.append(
                f"  n={row.n} a={row.a} lambda={row.lam} g={row.g} "
                f"d={row.d} Delta={row.Delta} c={row.c} [{row.existence}] {row.structure}"
            )
        _emit(args, "\n".join(text), [_row_dict(x) for x in rows])
        return 0
    rows, families = enumerate_r4()
    text = ["determined cases:"]
    for row in rows:
        text.append(
            f"  a={row.a} lambda={row.lam} g={row.g} chi={row.chi} {row.structure}"
        )
    text.append("open families:")
    for f in families:
        hi = f.lam_max if f.lam_max is not None else "unbounded"
        text.append(
            f"  a={f.a}: {f.lam_min} <= lambda <= {hi}, genus cap {f.g_max}"
        )
    _emit(
        args,
        "\n".join(text),
        {
            "rows": [_row_dict(x) for x in rows],
            "families": [
                {
                    "a": f.a,
                    "lambda_min": f.lam_min,
                    "lambda_max": f.lam_max,
                    "g_max": f.g_max,
                }
                for f in families
            ],
        },
    )
    return 0


def cmd_table(args) -> int:
    from .classify import check_table, table_all_pass

    reports = check_table()
    ok = table_all_pass(reports)
    lines = []
    n_rel = 0
    for row, reps in reports:
        bad = [x for x in reps if not x.ok]
        n_rel += len(reps)
        status = "PASS" if not bad else "FAIL"
        lines.append(f"{status}  {row.key()}  {row.structure}")
        for x in bad:
            lines.append(f"      FAIL {x.relation} {x.detail}")
    lines.append(
        f"{'all rows PASS' if ok else 'TABLE CHECK FAILED'} "
        f"({len(reports)} rows, {n_rel} relation checks)"
    )
    _emit(
        args,
        "\n".join(lines),
        {
            "rows": len(reports),
            "relations": n_rel,
            "all_pass": ok,
            "failures": [
                {"row": row.key(), "relation": x.relation, "detail": x.detail}
                for row, reps in reports
                for x in reps
                if not x.ok
            ],
        },
    )
    return 0 if ok else 1


def cmd_coindex(args) -> int:
    from .classify import coindex_solver

    sols = coindex_solver(args.d, args.c, args.r_max)
    text = "\n".join(f"r={r} n={n} delta={delta}" for r, n, delta in sols)
    _emit(args, text, [{"r": r, "n": n, "delta": d} for r, n, d in sols])
    return 0


def cmd_invariants(args) -> int:
    from .invariants import Infeasible, coindex_delta, hp_relations, segre_chern

    out: dict = {}
    try:
        if args.r in (1, 2, 3, 4):
            hp = hp_relations(
                args.r, args.n, args.a or 0, args.eps,
                g=args.g, lam=args.lam, chi=args.chi,
            )
            out["hilbert_relations"] = {
                k: (str(v) if isinstance(v, tuple) else v) for k, v in hp.items()
            }
    except (Infeasible, ValueError) as e:
        out["hilbert_relations"] = f"not determined: {e}"
    if args.d is not None:
        try:
            names = ("coindex", "secant_defect", "inverse_base_dim", "secant_degree")
            out.update(zip(names, coindex_delta(args.r, args.n, args.d)))
        except ValueError as e:
            out["coindex"] = f"not determined: {e}"
    if args.lam is not None and args.g is not None:
        try:
            prof, derived = segre_chern(
                args.r, args.n, args.lam, args.g, args.d, args.delta
            )
            out["chern_degrees"] = list(prof.c)
            out["segre_degrees"] = list(prof.s)
            out.update(derived)
        except (Infeasible, ValueError) as e:
            out["segre_chern"] = f"not determined: {e}"
    text = "\n".join(f"{k}: {v}" for k, v in out.items())
    _emit(args, text, out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="quadbir",
        description="exact toolkit for quadratic birational transformations",
    )
    p.add_argument("--budget", type=int, default=None, help="step budget for basis computations (default 8,000,000)")
    p.add_argument("--format", choices=["text", "json"], default="text")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("hilbert", help="Hilbert data of an ideal file")
    s.add_argument("ideal_file")
    s.set_defaults(fn=cmd_hilbert)

    s = sub.add_parser("gb", help="reduced Groebner basis of an ideal file")
    s.add_argument("ideal_file")
    s.add_argument("--order", choices=["lex", "degrevlex"], default="degrevlex")
    s.set_defaults(fn=cmd_gb)

    s = sub.add_parser("map", help="quadric map defined by an ideal file")
    s.add_argument("ideal_file")
    s.add_argument("--image", action="store_true", help="compute the image ideal")
    s.add_argument("--sing", action="store_true", help="also the image singular locus")
    s.set_defaults(fn=cmd_map)

    s = sub.add_parser("verify", help="run a corpus example (or all)")
    s.add_argument("example", nargs="?")
    s.add_argument("--all", action="store_true")
    s.add_argument("--timings", action="store_true", help="include wall times (non-canonical output)")
    s.set_defaults(fn=cmd_verify)

    s = sub.add_parser("enumerate", help="re-derive a case list")
    s.add_argument("--r", type=int, required=True, choices=[1, 2, 3, 4])
    s.set_defaults(fn=cmd_enumerate)

    s = sub.add_parser("table", help="validate the classification table")
    s.set_defaults(fn=cmd_table)

    s = sub.add_parser("coindex", help="solve the coindex/secant-defect system")
    s.add_argument("--d", type=int, required=True)
    s.add_argument("--c", type=int, required=True)
    s.add_argument("--r-max", type=int, default=10)
    s.set_defaults(fn=cmd_coindex)

    s = sub.add_parser("invariants", help="evaluate the closed-form relations")
    s.add_argument("--r", type=int, required=True)
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--a", type=int, default=None)
    s.add_argument("--eps", type=int, default=0)
    s.add_argument("--lambda", dest="lam", type=int, default=None)
    s.add_argument("--g", type=int, default=None)
    s.add_argument("--chi", type=int, default=None)
    s.add_argument("--d", type=int, default=None)
    s.add_argument("--delta", dest="delta", type=int, default=None, help="image degree")
    s.set_defaults(fn=cmd_invariants)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except PolyParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 2
    except (ValueError, FileNotFoundError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except BudgetExceeded as e:
        print(f"SKIPPED_HEAVY: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
