"""Plain-text files for rings, ideals, and generator lists.

Format:

    # free-form comments
    ring x0 x1 x2 over QQ
    ideal:
    x1^2 - x0*x2
    2*x0 - 1/3*x1

One generator per line after the `ideal:` marker.  A generator is a sum
of terms; a term is a run of signs, then units joined by `*`; a unit is
a number (`3`, `1/2`) with an optional variable after it (`2x0`, where
the `*` may be left out), or a variable with an optional `^` power.  The
comment above `polyring.parse_poly` is the authoritative statement of
this grammar.  Header names must be variables of that grammar, so that a
generator line can reach each of them.  Serialization is canonical (terms
in descending degree-reverse-lexicographic order), so files round-trip
identically.
"""

from __future__ import annotations

import io

from .polyring import VARIABLE, Ideal, Poly, PolyParseError, Ring, format_poly, parse_poly


def parse_ideal_text(text: str) -> Ideal:
    ring: Ring | None = None
    gens: list[Poly] = []
    in_ideal = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        # after 'ideal:' every line is a generator, even one that starts
        # with a variable named `ring`
        if line.startswith("ring ") and not in_ideal:
            if ring is not None:
                raise PolyParseError("duplicate ring header", lineno)
            words = line.split()[1:]
            if words[-2:] != ["over", "QQ"]:
                raise PolyParseError("ring header must end with 'over QQ'", lineno)
            names = words[:-2]
            if not names:
                raise PolyParseError("ring header lists no variables", lineno)
            for k, name in enumerate(names):
                if not VARIABLE.fullmatch(name):
                    raise PolyParseError(f"bad variable name {name!r}", lineno)
                if name in names[:k]:
                    raise PolyParseError(f"repeated variable name {name!r}", lineno)
            ring = Ring(names)
            continue
        if line == "ideal:":
            if ring is None:
                raise PolyParseError("'ideal:' before the ring header", lineno)
            in_ideal = True
            continue
        if not in_ideal or ring is None:
            raise PolyParseError(f"unexpected content {line!r}", lineno)
        gens.append(parse_poly(ring, line, lineno))
    if ring is None:
        raise PolyParseError("missing ring header", None)
    return Ideal(ring, gens)


def read_ideal(path: str) -> Ideal:
    with open(path, encoding="utf-8") as fh:
        return parse_ideal_text(fh.read())


def serialize_ideal(I: Ideal) -> str:
    out = io.StringIO()
    out.write("ring " + " ".join(I.ring.variables) + " over QQ\n")
    out.write("ideal:\n")
    for g in I.generators:
        out.write(format_poly(g) + "\n")
    return out.getvalue()
