import numpy as np
from hypothesis import given, settings, strategies as st

from prototext.optim import Adam


@st.composite
def row_sparse_runs(draw):
    """A group shape, one row set per step (empty and all rows included) and a seed."""
    n_rows = draw(st.integers(1, 12))
    width = draw(st.integers(1, 5))
    every_row = frozenset(range(n_rows))
    row_set = st.one_of(
        st.just(frozenset()), st.just(every_row), st.frozensets(st.sampled_from(sorted(every_row)))
    )
    steps = draw(st.lists(row_set, min_size=20, max_size=30))
    return (n_rows, width), steps, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=100, deadline=None)
@given(run=row_sparse_runs())
def test_rows_form_matches_dense_gradient(run):
    """A gradient given on its nonzero rows moves params, m and v exactly as the dense one."""
    shape, steps, seed = run
    rng = np.random.default_rng(seed)
    start = {"emb": rng.normal(size=shape), "w": rng.normal(size=shape[1])}
    dense = Adam({k: p.copy() for k, p in start.items()}, lr=0.05)
    sparse = Adam({k: p.copy() for k, p in start.items()}, lr=0.05)
    for row_set in steps:
        rows = np.array(sorted(row_set), dtype=np.intp)
        values = rng.normal(size=(len(rows), shape[1])) * rng.choice([1e-6, 1.0, 1e3])
        g = np.zeros(shape)
        g[rows] = values
        d_w = rng.normal(size=shape[1])
        dense.step({"emb": g, "w": d_w})
        sparse.step({"emb": values, "w": d_w}, rows={"emb": rows})
    for name in start:
        assert sparse.params[name].tobytes() == dense.params[name].tobytes()
        assert sparse._m[name].tobytes() == dense._m[name].tobytes()
        assert sparse._v[name].tobytes() == dense._v[name].tobytes()
