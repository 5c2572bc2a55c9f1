"""Random sweep and closed-box meshes for the property tests.

``meshes()`` draws an open mesh (``build_mesh``: ppw, padding, observation
points) or a closed box (``build_box_mesh``:
ppw, box length, observation points), around a case-1, case-2 or vacuum
slab of random half-length, and gives it with its medium.
"""

import dataclasses

from hypothesis import assume
from hypothesis import strategies as st

from slabqed.medium import CASE_PRESETS
from slabqed.mesh import build_box_mesh, build_mesh


@st.composite
def meshes(draw):
    """(mesh, medium); draws with observation points closer than the
    breakpoint tolerance to another breakpoint are discarded."""
    medium = dataclasses.replace(
        CASE_PRESETS[draw(st.sampled_from(["1", "2", "vacuum"]))],
        slab_half_length=draw(st.floats(0.005, 0.04)))
    a = medium.slab_half_length
    ppw = draw(st.floats(10.0, 80.0))
    fractions = draw(st.lists(st.floats(-0.999, 0.999), max_size=3))
    try:
        if draw(st.booleans()):
            box_length = draw(st.floats(8.0 * a, 0.4))
            obs = [f * 0.5 * box_length for f in fractions]
            mesh = build_box_mesh(medium, 700.0, ppw, box_length, obs)
        else:
            padding = draw(st.floats(0.01, 0.1))
            obs = [f * (a + padding) for f in fractions]
            mesh = build_mesh(medium, 700.0, ppw, padding, obs)
    except ValueError as exc:
        assume("closer than" not in str(exc))
        raise
    return mesh, medium
