"""Static graph construction against direct numpy evaluation of the kernel."""
import numpy as np
import pytest

from dgcrn import graphs
from dgcrn.errors import ConfigError, DegenerateInputError, DimensionError


def _rand_distances(rng, n):
    pos = rng.uniform(0, 10, (n, 2))
    d = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=-1)
    np.fill_diagonal(d, 0.0)
    return d


def test_diagonal_is_one():
    rng = np.random.default_rng(0)
    g = graphs.build_adjacency(_rand_distances(rng, 5), kappa=0.1)
    assert np.array_equal(np.diagonal(g.adjacency), np.ones(5))


def test_kernel_matches_direct_evaluation():
    rng = np.random.default_rng(1)
    d = _rand_distances(rng, 6)
    g = graphs.build_adjacency(d, kappa=0.1)
    # independent evaluation: population std of finite off-diagonal entries
    off = d[~np.eye(6, dtype=bool)]
    sigma = off[np.isfinite(off)].std()
    w = np.exp(-((d / sigma) ** 2))
    expect = np.where(w >= 0.1, w, 0.0)
    assert np.array_equal(g.adjacency, expect)
    assert np.all((g.adjacency >= 0) & (g.adjacency <= 1))


def test_kernel_at_sigma_and_below_threshold():
    # asymmetric 2-node: sigma = std({3, 9}) = 3, so d[0,1] == sigma exactly
    d = np.array([[0.0, 3.0], [9.0, 0.0]])
    g = graphs.build_adjacency(d, kappa=0.1)
    assert g.adjacency[0, 1] == pytest.approx(np.exp(-1.0))
    # the reverse edge has kernel exp(-9) ~ 1.2e-4 < kappa and is dropped
    assert np.exp(-((9.0 / 3.0) ** 2)) < 0.1
    assert g.adjacency[1, 0] == 0.0


def test_infinite_distance_gives_zero_weight():
    d = np.array([[0.0, 1.0, np.inf], [2.0, 0.0, 3.0], [np.inf, 4.0, 0.0]])
    g = graphs.build_adjacency(d, kappa=0.05)
    assert g.adjacency[0, 2] == 0.0
    assert g.adjacency[2, 0] == 0.0


def test_kappa_monotonicity():
    rng = np.random.default_rng(2)
    d = _rand_distances(rng, 10)
    prev_edges = None
    for kappa in [0.05, 0.1, 0.2, 0.5]:
        edges = set(map(tuple, np.argwhere(graphs.build_adjacency(d, kappa).adjacency > 0)))
        if prev_edges is not None:
            assert edges <= prev_edges
        prev_edges = edges


def test_build_errors():
    with pytest.raises(DimensionError):
        graphs.build_adjacency(np.zeros((3, 4)))
    with pytest.raises(DegenerateInputError):
        graphs.build_adjacency(np.zeros((1, 1)))
    with pytest.raises(DegenerateInputError):
        # identical off-diagonal distances: sigma = 0
        graphs.build_adjacency(np.array([[0.0, 5.0], [5.0, 0.0]]))
    with pytest.raises(DegenerateInputError):
        d = np.array([[0.0, 1.0], [2.0, 0.5]])
        graphs.build_adjacency(d)


def test_normalize_hand_cases():
    assert np.array_equal(graphs.normalize_static(np.eye(3)), np.eye(3))
    assert np.array_equal(
        graphs.normalize_static(np.ones((2, 2))), np.full((2, 2), 0.5)
    )
    out = graphs.normalize_static(np.array([[1.0, 3.0], [2.0, 2.0]]))
    assert np.array_equal(out, np.array([[0.25, 0.75], [0.5, 0.5]]))


def test_normalize_row_stochastic_property():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        a = rng.uniform(0, 5, (n, n))
        a[np.diag_indices(n)] += 0.1  # keep every row sum positive
        out = graphs.normalize_static(a)
        assert np.allclose(out.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(out >= 0)


def test_normalize_zero_row_error():
    a = np.array([[0.0, 0.0], [1.0, 1.0]])
    with pytest.raises(DegenerateInputError) as ei:
        graphs.normalize_static(a)
    assert "row 0" in str(ei.value)


def test_forward_backward_coincide_iff_symmetric():
    rng = np.random.default_rng(4)
    d = _rand_distances(rng, 6)  # euclidean, symmetric
    g = graphs.build_adjacency(d, kappa=0.1)
    assert np.allclose(g.forward_norm, g.backward_norm)
    d[0, 1] = d[0, 1] * 0.11  # break symmetry
    g2 = graphs.build_adjacency(d, kappa=0.1)
    assert not np.allclose(g2.forward_norm, g2.backward_norm)
    for m in (g2.forward_norm, g2.backward_norm):
        assert np.allclose(m.sum(axis=1), 1.0, atol=1e-9)


def test_norm_pair_cached_tensors():
    rng = np.random.default_rng(5)
    g = graphs.build_adjacency(_rand_distances(rng, 4))
    f32a, b32a = g.norm_pair(np.float32)
    f32b, _ = g.norm_pair(np.float32)
    assert f32a is f32b
    assert f32a.dtype == np.float32
    assert b32a.dtype == np.float32
    f64, _ = g.norm_pair(np.float64)
    assert np.allclose(f64.data, g.forward_norm)


def test_distance_csv_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    d = _rand_distances(rng, 5)
    d[1, 3] = np.inf  # unreachable pair stays absent in the file
    path = tmp_path / "dist.csv"
    graphs.write_distance_csv(path, d)
    back = graphs.load_distance_csv(path)
    assert np.array_equal(back, d)


def test_distance_csv_errors(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("a,b,c\n")
    with pytest.raises(ConfigError):
        graphs.load_distance_csv(p)
    p.write_text("from,to,distance\n0,1,oops\n")
    with pytest.raises(ConfigError):
        graphs.load_distance_csv(p)
    # NaN fails a range check written as `not dist >= 0`
    p.write_text("from,to,distance\n0,1,1.5\n0,1,nan\n")
    with pytest.raises(ConfigError, match=r"bad\.csv:3: "):
        graphs.load_distance_csv(p)
    # a quoted field may span lines; errors name the physical line
    p.write_text('from,to,distance\n"0\n",1,1.5\n0,x,2.0\n')
    with pytest.raises(ConfigError, match=r"bad\.csv:4: "):
        graphs.load_distance_csv(p)
