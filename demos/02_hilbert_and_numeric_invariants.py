"""Hilbert data of classical varieties and the closed-form invariant engine.

The same numbers appear twice: once computed symbolically from equations
(dimension, degree, sectional genus, chi), once predicted by the closed-form
relations that drive the classification.
"""

from quadbir import hilbert_data, hp_relations, pushforward_degrees, segre_chern
from quadbir.invariants import coindex_delta, normal_segre_from_chern
from quadbir.varieties import (
    elliptic_quintic_pfaffian,
    rational_normal_curve,
    segre_product,
    veronese,
)

print("symbolic Hilbert data:")
for label, I in [
    ("twisted cubic", rational_normal_curve(3)),
    ("Veronese surface", veronese(2, 2)),
    ("Segre threefold", segre_product((1, 2))),
    ("elliptic quintic", elliptic_quintic_pfaffian()),
]:
    hd = hilbert_data(I)
    print(
        f"  {label:18s} dim {hd.dim_proj}  degree {hd.degree}  "
        f"genus {hd.sectional_genus}  hp = {hd.hp_str()}"
    )

print("\nclosed-form predictions for the quintic-curve transformation:")
hp = hp_relations(1, 4, 0, 0)
print("  degree and genus from the ambient data:", hp)
profile, derived = segre_chern(1, 4, hp["lam"], hp["g"])
print("  inverse degree and image degree:", derived)
print("  coindex/secant data:", coindex_delta(1, 4, derived["d"]))

print("\npushforward degrees from Chern data (degree-eight plane bundle):")
s = normal_segre_from_chern(3, 8, 8, (12, 15, 6))
print("  normal-bundle Segre degrees:", s)
deg_image, d_times = pushforward_degrees(3, 8, 8, list(s))
print("  image degree:", deg_image, " inverse-degree product:", d_times)
