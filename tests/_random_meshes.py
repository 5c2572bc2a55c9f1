"""Random sweep and closed-box meshes for the property tests.

``meshes()`` draws an open mesh (``build_mesh``: ppw, padding, observation
points) or a closed box (``build_box_mesh``:
ppw, box length, observation points), around a case-1, case-2 or vacuum
slab of random half-length, and gives it with its medium.
``open_meshes()`` draws the open meshes alone, each with the padded layout
it was cut from (``padded_layout``) and its observation points, and
``dropped_padding`` draws points in the padding the cut dropped.
"""

import dataclasses

import numpy as np
from hypothesis import assume
from hypothesis import strategies as st

from slabqed import mesh as mesh_module
from slabqed.medium import CASE_PRESETS
from slabqed.mesh import Mesh1D, build_box_mesh, build_mesh


# the worst miss of a cut mesh's fields against its uncut layout's over
# 2,000 draws, relative to max|G| or to max(|total|, 1): 1.4e-11 for G
# and 1.7e-11 for a scattering state, solver round-off and padding
# elements that match the wall element's length to the last few bits only
CUT_FLOOR = 1e-10


def padded_layout(medium, k_max, ppw, padding, obs):
    """The open mesh over the whole padded layout, uncut: nodes over
    [-(a + padding), a + padding] as ``build_mesh`` lays them out, and a
    wall one element beyond each end, of its neighbour's length. Its
    uniform vacuum span at each wall is the padding ``build_mesh`` drops."""
    a = medium.slab_half_length
    nodes = mesh_module._nodes(
        mesh_module._layout(medium, k_max, ppw, a + padding, obs),
        a + padding)
    walls = (nodes[0] - (nodes[1] - nodes[0]),
             nodes[-1] + (nodes[-1] - nodes[-2]))
    return Mesh1D(np.concatenate(([walls[0]], nodes, [walls[1]])), a,
                  is_open=True)


@st.composite
def _draws(draw, open_only):
    """(mesh, medium, layout, observation points), layout None for a
    closed box; draws with observation points closer than the breakpoint
    tolerance to another breakpoint are discarded."""
    medium = dataclasses.replace(
        CASE_PRESETS[draw(st.sampled_from(["1", "2", "vacuum"]))],
        slab_half_length=draw(st.floats(0.005, 0.04)))
    a = medium.slab_half_length
    ppw = draw(st.floats(10.0, 80.0))
    fractions = draw(st.lists(st.floats(-0.999, 0.999), max_size=3))
    try:
        if not open_only and draw(st.booleans()):
            box_length = draw(st.floats(8.0 * a, 0.4))
            obs = [f * 0.5 * box_length for f in fractions]
            return build_box_mesh(medium, 700.0, ppw, box_length,
                                  obs), medium, None, obs
        padding = draw(st.floats(0.01, 0.1))
        obs = [f * (a + padding) for f in fractions]
        return (build_mesh(medium, 700.0, ppw, padding, obs), medium,
                padded_layout(medium, 700.0, ppw, padding, obs), obs)
    except ValueError as exc:
        assume("closer than" not in str(exc))
        raise


def dropped_padding(mesh, layout, data):
    """Points past ``mesh``'s ports but in ``layout``'s physical region,
    on each side, nodes of the layout among them."""
    (lo, hi), (outer_lo, outer_hi) = (mesh.physical_region,
                                      layout.physical_region)
    nodes = layout.nodes[(layout.nodes >= outer_lo) & (layout.nodes < lo)
                         | (layout.nodes > hi) & (layout.nodes <= outer_hi)]
    point = (st.floats(outer_lo, lo, exclude_max=True)
             | st.floats(hi, outer_hi, exclude_min=True)
             | st.sampled_from(nodes))
    x = np.array(data.draw(st.lists(point, min_size=1, max_size=12)))
    assert np.all((x < lo) | (x > hi))
    return x


def meshes():
    """(mesh, medium), an open mesh or a closed box."""
    return _draws(False).map(lambda drawn: drawn[:2])


def open_meshes():
    """(mesh, medium, layout, observation points): an open mesh and its
    padded layout."""
    return _draws(True)
