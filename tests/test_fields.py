"""X-valued fields: properties over random grids, fibers, exponents and lattice rotations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radialmult import (
    GridFunction,
    MultiplierOperator,
    average_conjugated,
    lattice_group,
    lp_norm,
    make_grid,
    make_named_symbol,
    norm_upper_kernel,
    rotate_function,
)
from radialmult.rotation import subgroup_quadrature

EXPONENTS = [1.0, 1.5, 2.0, np.inf]

fields = st.fixed_dictionaries(
    {
        "n": st.sampled_from([1, 2, 3]),
        "N": st.sampled_from([4, 6, 8]),
        "L": st.sampled_from([4.0, 8.0]),
        "d": st.sampled_from([1, 2, 3]),
        "q": st.sampled_from(EXPONENTS),
        "seed": st.integers(0, 2**32 - 1),
    }
)


def _field(n, N, L, d, q, seed):
    g = make_grid(n, N, L)
    rng = np.random.default_rng(seed)
    shape = g.shape + (d,)
    return GridFunction(g, rng.standard_normal(shape) + 1j * rng.standard_normal(shape), q=q)


@settings(max_examples=40, deadline=None)
@given(spec=fields, p=st.sampled_from([1.0, 2.0, 4.0, np.inf]))
def test_one_dimensional_fiber_has_the_scalar_norm(spec, p):
    F = _field(**{**spec, "d": 1})
    f = GridFunction(F.grid, F.values[..., 0])
    assert lp_norm(F, p) == pytest.approx(lp_norm(f, p), rel=1e-14)


@settings(max_examples=40, deadline=None)
@given(spec=fields, p=st.sampled_from([1.0, 2.0, 4.0, np.inf]), k=st.integers(0, 23))
def test_exact_rotation_preserves_the_norm(spec, p, k):
    F = _field(**spec)
    group = lattice_group(spec["n"])
    out = rotate_function(F, group[k % len(group)])
    assert out.q == F.q and out.values.shape == F.values.shape
    assert lp_norm(out, p) == pytest.approx(lp_norm(F, p), rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(spec=fields, p=st.sampled_from([1.0, 2.0, 4.0, np.inf]))
def test_group_average_of_heat_contracts(spec, p):
    F = _field(**spec)
    n = spec["n"]
    op = MultiplierOperator(make_named_symbol("heat", {"t": 1.0}, n), F.grid)
    QF = average_conjugated(op, subgroup_quadrature(lattice_group(n)), F)
    assert QF.q == F.q
    assert lp_norm(QF, p) <= norm_upper_kernel(op).value * lp_norm(F, p) + 1e-9
