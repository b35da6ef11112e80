"""Certificates for one explicit transformation, end to end.

The base locus is a quartic curve in a hyperplane of P^4; the seven
quadrics through it map P^4 into P^6.  Everything the report asserts is a
polynomial identity or an exact ideal computation: image membership,
image-ideal equality by elimination, the singular scheme of the image, the
linear inverse, and the coincidence of the singular support with the
inverse base locus.
"""

import os

from quadbir import (
    RationalMap,
    composition_identity,
    hilbert_data,
    ideal_equal,
    image_ideal,
    map_type,
    singular_locus,
    solve_inverse,
)
from quadbir.ideal_io import read_ideal

DATA = os.path.join(
    os.path.dirname(__file__), "..", "src", "quadbir", "data", "ideals"
)

X = read_ideal(os.path.join(DATA, "quartic_curve_base.ideal"))
components = read_ideal(os.path.join(DATA, "quartic_curve_map.ideal"))
S_recorded = read_ideal(os.path.join(DATA, "quartic_curve_image.ideal"))

F = RationalMap(X.ring, S_recorded.ring, components.generators)
print("map: P^4 -> P^6 by", len(F.components), "quadrics")

S = image_ideal(F)
print("image ideal generators:")
for g in S.generators:
    print("   ", g)
print("equals the recorded ideal:", ideal_equal(S, S_recorded))

hS = hilbert_data(S_recorded)
print("image Hilbert polynomial:", hS.hp_str())

sing = singular_locus(S_recorded, 2)
hsing = hilbert_data(sing)
print("singular scheme Hilbert polynomial:", hsing.hp_str())

G = solve_inverse(F, 1)
print("linear inverse:", [str(c) for c in G.components])
print("composition certified:", composition_identity(F, G))
print("type:", map_type(F, G))
print(
    "inverse base locus = singular support:",
    sorted(str(c) for c in G.components) == ["y2", "y3", "y4", "y5", "y6"],
)
