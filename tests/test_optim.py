import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from prototext.optim import BETA1, BETA2, EPS, Adam


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


class ReferenceAdam:
    """Adam that writes every parameter on every step, in the order of operations
    of ``Adam.step``: the reference that skipped writes are held to."""

    def __init__(self, params, lr):
        self.params, self.lr, self.t = params, lr, 0
        self.m = {k: np.zeros_like(p) for k, p in params.items()}
        self.v = {k: np.zeros_like(p) for k, p in params.items()}

    def step(self, grads, rows=None):
        self.t += 1
        bc1 = 1.0 - BETA1 ** self.t
        bc2 = 1.0 - BETA2 ** self.t
        for name, p in self.params.items():
            g, m, v = grads[name], self.m[name], self.v[name]
            r = rows.get(name) if rows else None
            m *= BETA1
            v *= BETA2
            if r is None:
                m += (1.0 - BETA1) * g
                v += (1.0 - BETA2) * np.square(g)
            else:
                m[r] += (1.0 - BETA1) * g
                v[r] += (1.0 - BETA2) * np.square(g)
            step = np.divide(m, bc1)
            step *= self.lr
            denom = np.divide(v, bc2)
            np.sqrt(denom, out=denom)
            denom += EPS
            step /= denom
            p -= step


def pair(params, lr, m=None, v=None, t=0):
    """An ``Adam`` and a ``ReferenceAdam`` on copies of the same parameters and state."""
    opt = Adam({k: p.copy() for k, p in params.items()}, lr=lr)
    ref = ReferenceAdam({k: p.copy() for k, p in params.items()}, lr=lr)
    for state, adam_state, ref_state in ((m, opt._m, ref.m), (v, opt._v, ref.v)):
        for name, value in (state or {}).items():
            adam_state[name][...] = ref_state[name][...] = value
    opt.t = ref.t = t
    return opt, ref


def both(opt, ref, grads, rows):
    opt.step(grads, rows=rows)
    ref.step(grads, rows=rows)


def assert_same_bits(opt, ref):
    for name in ref.params:
        assert opt.params[name].tobytes() == ref.params[name].tobytes(), name
        assert opt._m[name].tobytes() == ref.m[name].tobytes(), name
        assert opt._v[name].tobytes() == ref.v[name].tobytes(), name


def zero_step(opt, ref, width):
    """One step with an exactly zero gradient: no ``emb`` rows and a zero ``w``."""
    both(opt, ref, {"emb": np.zeros((0, width)), "w": np.zeros(width)},
         {"emb": np.zeros(0, dtype=np.intp)})


SPECIAL_PARAMS = [0.0, -0.0, 1.0, -0.5, 2.0**-30, 5e-324, -2.0**-1022, 2.0**-900]


@st.composite
def sparse_then_zero_runs(draw):
    """Starting parameters with special values sprinkled in, and phases that alternate
    row-sparse steps with streaks of zero-gradient steps."""
    n_rows = draw(st.integers(1, 8))
    width = draw(st.integers(1, 4))
    every_row = list(range(n_rows))
    scale = st.sampled_from([1e-30, 1e-8, 1.0, 1e3])
    sparse = st.lists(st.tuples(st.frozensets(st.sampled_from(every_row)), scale), max_size=6)
    phases = draw(st.lists(st.tuples(sparse, st.integers(0, 120)), min_size=1, max_size=4))
    specials = draw(st.lists(st.sampled_from(SPECIAL_PARAMS), max_size=4))
    lr = draw(st.sampled_from([0.05, 1e-3]))
    return (n_rows, width), phases, specials, lr, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=150, deadline=None)
@given(run=sparse_then_zero_runs())
def test_skipped_writes_match_the_dense_reference(run):
    """Row-sparse steps, then zero-gradient streaks: params, m and v keep the bits of
    an Adam that writes every step."""
    shape, phases, specials, lr, seed = run
    rng = np.random.default_rng(seed)
    emb = rng.normal(size=shape)
    emb.flat[rng.choice(emb.size, size=min(len(specials), emb.size), replace=False)] = \
        specials[: emb.size]
    opt, ref = pair({"emb": emb, "w": rng.normal(size=shape[1])}, lr)
    for sparse_steps, streak in phases:
        for row_set, scale in sparse_steps:
            rows = np.array(sorted(row_set), dtype=np.intp)
            values = rng.normal(size=(len(rows), shape[1])) * scale
            both(opt, ref, {"emb": values, "w": rng.normal(size=shape[1]) * scale}, {"emb": rows})
        for _ in range(streak):
            zero_step(opt, ref, shape[1])
        assert_same_bits(opt, ref)


# first moments across the exponent range: signed zeros, subnormals (the smallest
# are fixed points of m -> fl(0.9 * m)), normals, the extremes, an infinity and a NaN
MOMENT_SEEDS = [0.0, -0.0, 5e-324, -3 * 5e-324, 2.0**-1070, -(2.0**-1022), 1e-30, -1.0,
                np.finfo(np.float64).max, -np.inf, np.nan]


@st.composite
def zero_streak_runs(draw):
    """Parameters, first moments drawn from MOMENT_SEEDS, and phases of at most one
    row-sparse step followed by a zero-gradient streak."""
    n_rows = draw(st.integers(1, 6))
    width = draw(st.integers(1, 3))
    seeds = st.lists(st.sampled_from(MOMENT_SEEDS), min_size=n_rows * width + width,
                     max_size=n_rows * width + width)
    rows = st.frozensets(st.sampled_from(range(n_rows)))
    phases = draw(st.lists(st.tuples(st.one_of(st.none(), rows), st.integers(1, 150)),
                           min_size=1, max_size=4))
    return (n_rows, width), draw(seeds), phases, draw(st.integers(0, 2**32 - 1))


def _largest_moment(opt):
    """max |m| over every group by a scan; a NaN anywhere makes it NaN."""
    return float(np.max([np.max(np.abs(m), initial=0.0) for m in opt._m.values()]))


# the moments are seeded at finfo.max and +-inf on purpose, so the step may overflow
@pytest.mark.filterwarnings("ignore:overflow encountered in divide:RuntimeWarning")
@settings(max_examples=100, deadline=None)
@given(run=zero_streak_runs())
def test_zero_gradient_streaks_carry_the_largest_moment_exactly(run):
    """After each zero-gradient step the M that Adam carries without a scan is the scan's,
    and params, m and v keep the bits of an Adam that writes every step."""
    shape, seeds, phases, seed = run
    rng = np.random.default_rng(seed)
    n = shape[0] * shape[1]
    m = {"emb": np.reshape(seeds[:n], shape), "w": np.array(seeds[n:])}
    v = {key: np.abs(rng.normal(size=value.shape)) * 1e-4 for key, value in m.items()}
    opt, ref = pair({"emb": rng.normal(size=shape), "w": rng.normal(size=shape[1])},
                    0.05, m, v, t=20)
    for row_set, streak in phases:
        if row_set is not None:
            rows = np.array(sorted(row_set), dtype=np.intp)
            both(opt, ref, {"emb": rng.normal(size=(len(rows), shape[1])),
                            "w": rng.normal(size=shape[1])}, {"emb": rows})
        for _ in range(streak):
            zero_step(opt, ref, shape[1])
            top = _largest_moment(opt)
            assert opt._top == top or (np.isnan(opt._top) and np.isnan(top))
    assert_same_bits(opt, ref)


def converged(p, shape=(3, 2), lr=0.05, t=50, m_value=1e-30):
    """A pair with parameters ``p`` (emb) and the same tiny first moment everywhere,
    a state whose next zero-gradient write moves nothing unless ``p`` forbids it."""
    params = {"emb": np.asarray(p, dtype=np.float64).reshape(shape), "w": np.ones(shape[1])}
    m = {"emb": np.full(shape, m_value), "w": np.full(shape[1], m_value)}
    v = {"emb": np.full(shape, 1e-4), "w": np.full(shape[1], 1e-4)}
    return pair(params, lr, m, v, t)


class TestSkipBoundaries:
    """Named cases at the edges of the proof; every one must keep the reference's bits."""

    def test_converged_state_skips(self):
        opt, ref = converged(np.full(6, 0.75))
        for _ in range(5):
            zero_step(opt, ref, 2)
        assert opt.skipped == 5
        assert_same_bits(opt, ref)

    @pytest.mark.parametrize("value", [0.0, -0.0])
    def test_zero_parameter_never_skips(self, value):
        opt, ref = converged([0.75] * 5 + [value])
        zero_step(opt, ref, 2)
        assert opt.skipped == 0
        assert_same_bits(opt, ref)
        assert opt.params["emb"].flat[5] != 0.0

    def test_negative_zero_moment_pins_negative_zero_parameter(self):
        # s = -0.0 there, and -0.0 - (-0.0) is +0.0: the write flips the sign
        opt, ref = converged([0.75] * 5 + [-0.0])
        for adam_m in (opt._m, ref.m):
            adam_m["emb"].flat[5] = -0.0
        zero_step(opt, ref, 2)
        assert opt.skipped == 0
        assert_same_bits(opt, ref)
        assert not np.signbit(opt.params["emb"].flat[5])

    def test_positive_zero_moment_leaves_zero_parameter_out(self):
        opt, ref = converged([0.75] * 5 + [-0.0])
        for adam_m in (opt._m, ref.m):
            adam_m["emb"].flat[5] = 0.0
        zero_step(opt, ref, 2)
        assert opt.skipped == 1
        assert_same_bits(opt, ref)

    @pytest.mark.parametrize("value", [5e-324, 2.0**-1022, 2.0**-900])
    def test_tiny_parameter_never_skips(self, value):
        opt, ref = converged([0.75] * 5 + [value], m_value=1e-300)
        zero_step(opt, ref, 2)
        assert opt.skipped == 0
        assert_same_bits(opt, ref)

    def test_power_of_two_parameter_is_written_when_the_step_moves_it(self):
        # below 1.0 the spacing is 2**-53; a step of 2**-52 moves it, though it
        # is under 2**-50 of |p|
        opt, ref = converged([1.0] * 6, m_value=0.0)
        lr, t = 0.05, 51
        bc1 = 1.0 - BETA1**t
        for adam_m, adam_v in ((opt._m, opt._v), (ref.m, ref.v)):
            adam_v["emb"][...] = adam_v["w"][...] = 0.0
            adam_m["emb"][...] = adam_m["w"][...] = 2.0**-52 * bc1 * EPS / lr / BETA1
        zero_step(opt, ref, 2)
        assert opt.skipped == 0
        assert_same_bits(opt, ref)
        assert opt.params["emb"][0, 0] < 1.0

    @pytest.mark.parametrize("side, skips", [(-1, 1), (1, 0)])
    def test_moment_just_below_and_above_the_threshold(self, side, skips):
        p_min, lr, t = 0.5, 0.05, 51
        bc1 = 1.0 - BETA1**t
        # the M at which (M + 2**-1073) * K * (1 + 2**-40) + 2**-1000 == P * 2**-55
        edge = (p_min * 2.0**-55 - 2.0**-1000) / (lr / (bc1 * EPS) * (1.0 + 2.0**-40))
        opt, ref = converged([p_min] * 6, lr=lr, m_value=edge * (1.0 + side * 2.0**-30) / BETA1)
        zero_step(opt, ref, 2)
        assert opt.skipped == skips
        assert_same_bits(opt, ref)

    @pytest.mark.parametrize("where, value, skips", [
        ("m", np.nan, 0), ("m", np.inf, 0), ("m", -np.inf, 0), ("p", np.nan, 0),
        ("every p", np.inf, 0),
        # one infinite parameter: inf - s is inf, and P is the others' minimum
        ("p", -np.inf, 3),
    ])
    def test_nan_and_inf(self, where, value, skips):
        opt, ref = converged(np.full(6, 0.75))
        for params, adam_m in ((opt.params, opt._m), (ref.params, ref.m)):
            if where == "m":
                adam_m["emb"][1, 1] = value
            elif where == "p":
                params["emb"][1, 1] = value
            else:
                params["emb"][...] = params["w"][...] = value
        for _ in range(3):
            zero_step(opt, ref, 2)
        assert opt.skipped == skips
        assert_same_bits(opt, ref)

    def test_floor_is_taken_again_after_a_nonzero_step(self):
        # a row with p == 0 and m == 0 is outside P while the first streak skips;
        # a tiny gradient on it writes p to about -1e-295, below 2**-900, after
        # which no step may skip
        opt, ref = converged([0.75] * 4 + [0.0, 0.0], m_value=1e-30)
        for adam_m in (opt._m, ref.m):
            adam_m["emb"][2] = 0.0
        for _ in range(3):
            zero_step(opt, ref, 2)
        assert opt.skipped == 3
        both(opt, ref, {"emb": np.full((1, 2), 1e-300), "w": np.zeros(2)},
             {"emb": np.array([2], dtype=np.intp)})
        for _ in range(3):
            zero_step(opt, ref, 2)
        assert opt.skipped == 3
        assert_same_bits(opt, ref)

    def test_step_without_rows_never_tries_the_proof(self, monkeypatch):
        opt, ref = converged(np.full(6, 0.75))

        def fail(self, bc1):
            raise AssertionError("proof tried on a step without rows")

        monkeypatch.setattr(Adam, "_moves_nothing", fail)
        both(opt, ref, {"emb": np.zeros((3, 2)), "w": np.zeros(2)}, None)
        assert opt.skipped == 0
        assert_same_bits(opt, ref)

    def test_nonzero_dense_group_is_written(self):
        opt, ref = converged(np.full(6, 0.75))
        both(opt, ref, {"emb": np.zeros((0, 2)), "w": np.array([0.0, 1e-3])},
             {"emb": np.zeros(0, dtype=np.intp)})
        assert opt.skipped == 0
        assert_same_bits(opt, ref)
