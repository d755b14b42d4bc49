"""Shared hypothesis strategies for bigraph-valued tests."""

from __future__ import annotations

import pytest

try:
    from hypothesis import strategies as st
except ModuleNotFoundError:
    pytest.skip("hypothesis not installed", allow_module_level=True)

from dhp import Bigraph


@st.composite
def bigraphs(
    draw,
    min_nx: int = 0,
    max_nx: int = 5,
    min_ny: int = 0,
    max_ny: int = 5,
) -> Bigraph:
    nx = draw(st.integers(min_nx, max_nx))
    ny = draw(st.integers(min_ny, max_ny))
    top = (1 << ny) - 1
    rows = tuple(draw(st.integers(0, top)) for _ in range(nx))
    return Bigraph(nx, ny, rows)


@st.composite
def dense_bigraphs(
    draw,
    min_nx: int = 2,
    max_nx: int = 5,
    min_ny: int = 2,
    max_ny: int = 5,
    ny_at_least_nx: bool = False,
) -> Bigraph:
    """Bigraphs biased toward many edges, where the rich predicates live.

    ``ny_at_least_nx`` skips the shapes where no X-set as large as X can
    see |X| distinct Y-vertices, which every dHp, snp or supercyclic graph
    needs.
    """
    nx = draw(st.integers(min_nx, max_nx))
    ny = draw(st.integers(max(min_ny, nx) if ny_at_least_nx else min_ny, max_ny))
    top = (1 << ny) - 1
    rows = []
    for _ in range(nx):
        missing = draw(st.integers(0, top))
        keep = draw(st.integers(0, top))
        rows.append(top & ~(missing & ~keep))
    return Bigraph(nx, ny, tuple(rows))


@st.composite
def graph_with_xs(draw, max_nx: int = 5, max_ny: int = 5, min_size: int = 2):
    """A dense bigraph together with a target X-subset of size >= min_size."""
    g = draw(dense_bigraphs(min_nx=2, max_nx=max_nx, min_ny=2, max_ny=max_ny))
    size = draw(st.integers(min_size, g.nx))
    xs = draw(
        st.lists(
            st.integers(0, g.nx - 1), min_size=size, max_size=size, unique=True
        )
    )
    return g, sorted(xs)
