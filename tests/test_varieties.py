import pytest

from quadbir.hilbert import graded_piece, hilbert_data
from quadbir.maps import smooth_certificate
from quadbir.varieties import (
    elliptic_quintic_pfaffian,
    grassmannian_plucker,
    hyperplane_slice,
    in_hyperplane,
    rational_normal_curve,
    scroll,
    segre_product,
    veronese,
)


def test_twisted_cubic_minors():
    I = rational_normal_curve(3)
    assert len(I.generators) == 3
    hd = hilbert_data(I)
    assert (hd.dim_proj, hd.degree, hd.sectional_genus) == (1, 3, 0)


def test_veronese_surface():
    I = veronese(2, 2)
    assert len(I.generators) == 6
    hd = hilbert_data(I)
    assert (hd.dim_proj, hd.degree, hd.sectional_genus) == (2, 4, 0)


def test_segre_threefold():
    I = segre_product((1, 2))
    assert len(I.generators) == 3
    hd = hilbert_data(I)
    assert (hd.dim_proj, hd.degree) == (3, 3)


def test_scroll_degrees():
    I = scroll((1, 4))
    assert len(I.generators) == 10
    hd = hilbert_data(I)
    assert (hd.dim_proj, hd.degree, hd.sectional_genus) == (2, 5, 0)
    J = scroll((2, 2, 2))
    hj = hilbert_data(J)
    assert (hj.dim_proj, hj.degree, hj.sectional_genus) == (3, 6, 0)


def test_grassmannian_plucker():
    I = grassmannian_plucker(1, 4)
    assert len(I.generators) == 5
    hd = hilbert_data(I)
    assert (hd.dim_proj, hd.degree) == (6, 5)
    with pytest.raises(ValueError):
        grassmannian_plucker(2, 5)


def test_elliptic_quintic_model():
    I = elliptic_quintic_pfaffian()
    assert len(I.generators) == 5
    hd = hilbert_data(I)
    assert (hd.dim_proj, hd.degree, hd.sectional_genus) == (1, 5, 1)
    assert smooth_certificate(I, 1)
    # nondegenerate: no quadric relations are linear, and the gap is zero
    assert graded_piece(I, 2)[0] == 5


def test_segre_product_cube():
    I = segre_product((1, 1, 1))
    assert len(I.generators) == 9
    hd = hilbert_data(I)
    assert (hd.dim_proj, hd.degree) == (3, 6)


def test_hyperplane_helpers():
    I = in_hyperplane(rational_normal_curve(3))
    assert I.ring.nvars == 5
    sliced = hyperplane_slice(segre_product((1, 1, 1)), [1, 0, 0, 1, 0, 1, 0, 1])
    hd = hilbert_data(sliced)
    assert (hd.dim_proj, hd.degree, hd.sectional_genus) == (2, 6, 1)


def test_in_hyperplane_takes_a_free_name():
    # p15 is already a Pluecker coordinate of G(1, 5)
    I = in_hyperplane(grassmannian_plucker(1, 5))
    assert I.ring.nvars == 16
    assert I.ring.variables[-1] == "p151"
    assert I.generators[-1] == I.ring.var("p151")
    assert in_hyperplane(rational_normal_curve(3)).ring.variables[-1] == "x4"
