import math
import re
import struct

import numpy as np
import pytest
import scipy.fft

from nls.diagnostics import ProbeSet, TraceRecorder
from nls.exponents import ModelParams
from nls.field import (
    FieldState,
    FromFile,
    Gaussian,
    GridSpec,
    PlaneWave,
    _free_factors,
    axis_wavenumbers,
    free_flow,
    free_gaussian,
    l2_norm,
    linear_propagate,
    load_checkpoint,
    make_initial,
    save_checkpoint,
    shell_mass,
    spectral_sq,
    weighted_sq,
)


def random_state(grid, rng):
    vals = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    return FieldState(grid=grid, values=vals)


# ---------------------------------------------------------------------------
# grid


def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec(4, 10.0, 64)
    with pytest.raises(ValueError):
        GridSpec(1, 10.0, 100)  # not a power of two
    with pytest.raises(ValueError):
        GridSpec(1, 10.0, 4)  # below minimum
    with pytest.raises(ValueError):
        GridSpec(1, -1.0, 64)
    g = GridSpec(2, 16.0, 32)
    assert g.spacing == 0.5
    assert g.shape == (32, 32)


@pytest.mark.parametrize("dim,length,points,message", [
    (1, math.inf, 8, "box_length must be positive and finite, got inf"),
    (1, math.nan, 8, "box_length must be positive and finite, got nan"),
    (1, 10.0, 2**25, "33554432^1 grid nodes exceed the cap of 16777216"),
    (2, 10.0, 8192, "8192^2 grid nodes exceed the cap"),
    (3, 10.0, 512, "512^3 grid nodes exceed the cap"),
])
def test_grid_bounds(dim, length, points, message):
    # constructing a GridSpec allocates nothing
    with pytest.raises(ValueError, match=re.escape(message)):
        GridSpec(dim, length, points)
    assert GridSpec(dim, 10.0, min(points, 2 ** (24 // dim))).shape  # the cap is allowed


def test_checkpoint_header_grid_rejection_names_the_file(tmp_path):
    path = tmp_path / "inf.nlsf"
    path.write_bytes(struct.pack("<4sIIId8x", b"NLSF", 1, 1, 8, math.inf) + bytes(128))
    message = f"{path}: box_length must be positive and finite, got inf"
    with pytest.raises(ValueError, match=re.escape(message)):
        load_checkpoint(path)


def test_grid_coordinates():
    g = GridSpec(1, 8.0, 8)
    assert np.allclose(g.axis_coordinates(), [-4, -3, -2, -1, 0, 1, 2, 3])
    g2 = GridSpec(2, 8.0, 8)
    r2 = g2.radius_squared()
    assert r2[0, 0] == 32.0  # corner (-4, -4)
    assert r2[4, 4] == 0.0  # center


def reshaped_axes(grid):
    """Per-axis coordinates reshaped by hand to (M,1,1), (1,M,1), (1,1,M)."""
    x = grid.axis_coordinates()
    return [x.reshape((1,) * d + (-1,) + (1,) * (grid.dim - 1 - d)) for d in range(grid.dim)]


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_axis_broadcasts_equal_hand_reshapes_bit_for_bit(dim):
    g = GridSpec(dim, 7.3, 16)
    want = reshaped_axes(g)
    got = g.coordinate_arrays()
    assert [a.shape for a in got] == [w.shape for w in want]
    assert all(np.array_equal(a, w) for a, w in zip(got, want))
    r2 = np.zeros(g.shape)
    for xd in want:
        r2 = r2 + xd**2
    assert g.radius_squared().shape == g.shape
    assert g.radius_squared().tobytes() == r2.tobytes()


@pytest.mark.parametrize("dim,mode", [(1, (-3,)), (2, (0, -5)), (3, (2, 0, -8))])
def test_plane_wave_phase_equals_the_hand_reshaped_sum(dim, mode):
    # a zero mode gives -0.0 phases on the left half, which both sums make +0.0
    g = GridSpec(dim, 2 * math.pi, 16)
    phase = np.zeros(g.shape)
    for mi, xd in zip(mode, reshaped_axes(g)):
        phase = phase + (2 * np.pi * mi / g.box_length) * xd
    want = (0.5 - 0.25j) * np.exp(1j * phase)
    assert make_initial(g, PlaneWave(0.5 - 0.25j, mode)).values.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# initial data


def test_gaussian_sampling():
    g = GridSpec(1, 40.0, 512)
    st = make_initial(g, Gaussian(1.0, 1.0))
    i0 = 256  # x = 0
    assert st.values[i0] == pytest.approx(1.0)
    x = g.axis_coordinates()
    assert np.allclose(st.values, np.exp(-(x**2) / 2))


def test_plane_wave_sampling():
    g = GridSpec(1, 2 * math.pi, 64)
    st = make_initial(g, PlaneWave(1.0, (3,)))
    assert l2_norm(st) == pytest.approx(math.sqrt(2 * math.pi), rel=1e-13)
    x = g.axis_coordinates()
    assert np.allclose(st.values, np.exp(3j * x))
    with pytest.raises(ValueError):
        make_initial(g, PlaneWave(1.0, (40,)))  # out of [-M/2, M/2)
    with pytest.raises(ValueError):
        make_initial(g, PlaneWave(1.0, (1, 2)))  # wrong arity


def test_gaussian_width_validation():
    with pytest.raises(ValueError):
        Gaussian(1.0, -1.0)
    with pytest.raises(ValueError):
        Gaussian(1.0, 0.0)


# ---------------------------------------------------------------------------
# linear propagator


@pytest.mark.parametrize("dim, m", [(1, 256), (2, 32), (3, 16)])
@pytest.mark.parametrize("t", [0.3, -0.7])
def test_free_flow_matches_dense_multiplier(dim, m, t):
    g = GridSpec(dim, 40.0, m)
    spec = random_state(g, np.random.default_rng(dim)).values
    k = np.meshgrid(*[axis_wavenumbers(g.box_length, m)] * dim, indexing="ij")
    want = spec * np.exp(-1j * sum(kd**2 for kd in k) * t)
    got = free_flow(spec, g, t)
    assert got is not spec
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
    back = free_flow(got, g, -t)
    assert np.max(np.abs(back - spec)) <= 1e-14 * np.max(np.abs(spec))
    copy = spec.copy()
    assert free_flow(spec, g, t, out=spec) is spec  # in place
    assert np.array_equal(spec, free_flow(copy, g, t))
    assert not any(f.flags.writeable for f in _free_factors(g, t))
    assert not any(f.flags.writeable for f in _free_factors(g, t, 0.5))


def test_propagate_zero_is_identity():
    g = GridSpec(1, 20.0, 128)
    st = random_state(g, np.random.default_rng(0))
    out = linear_propagate(st, 0.0)
    assert np.allclose(out.values, st.values, atol=1e-15)


def test_propagate_free_gaussian_closed_form():
    # box >= 40 sigma so wraparound is negligible
    g = GridSpec(1, 40.0, 1024)
    spec = Gaussian(1.0, math.sqrt(2.0))  # exp(-x^2/4)
    st = make_initial(g, spec)
    for t in (0.25, 1.0, 2.0):
        got = linear_propagate(st, t)
        want = free_gaussian(g, spec, t)
        assert np.max(np.abs(got.values - want.values)) < 1e-8
    out = linear_propagate(st, 1.0)
    assert abs(out.values[512]) == pytest.approx(2.0 ** (-0.25), rel=1e-12)


def test_propagate_group_inverse():
    g = GridSpec(1, 20.0, 256)
    st = random_state(g, np.random.default_rng(1))
    back = linear_propagate(linear_propagate(st, 0.7), -0.7)
    assert np.max(np.abs(back.values - st.values)) < 1e-13


def test_propagate_unitary_and_additive():
    rng = np.random.default_rng(2)
    for dim, m in ((1, 256), (2, 32), (3, 16)):
        g = GridSpec(dim, 10.0, m)
        st = random_state(g, rng)
        n0 = l2_norm(st)
        a = linear_propagate(st, 0.3)
        assert abs(l2_norm(a) - n0) < 1e-12 * n0
        two = linear_propagate(a, 0.45)
        one = linear_propagate(st, 0.75)
        assert np.max(np.abs(two.values - one.values)) < 1e-12 * np.max(
            np.abs(one.values)
        )


def test_gradient_invariant_under_propagation():
    g = GridSpec(1, 20.0, 256)
    st = random_state(g, np.random.default_rng(3))
    g0 = spectral_sq(scipy.fft.fftn(st.values), st.grid)[1]
    g1 = spectral_sq(scipy.fft.fftn(linear_propagate(st, 1.3).values), g)[1]
    assert g1 == pytest.approx(g0, rel=1e-12)


# ---------------------------------------------------------------------------
# norms


def test_gradient_norm_constant_field():
    g = GridSpec(1, 10.0, 64)
    st = FieldState(grid=g, values=np.full(g.shape, 2.3 + 1.1j))
    grad_sq = spectral_sq(scipy.fft.fftn(st.values), st.grid)[1]
    assert grad_sq == pytest.approx(0.0, abs=1e-28)


def test_gradient_norm_plane_wave():
    g = GridSpec(1, 2 * math.pi, 64)
    st = make_initial(g, PlaneWave(1.0, (4,)))
    # single mode k = 4: ||grad u||^2 = 16 ||u||^2 exactly
    grad_sq = spectral_sq(scipy.fft.fftn(st.values), st.grid)[1]
    assert grad_sq == pytest.approx(16 * l2_norm(st) ** 2, rel=1e-13)


def test_gradient_norm_gaussian():
    g = GridSpec(1, 40.0, 1024)
    st = make_initial(g, Gaussian(1.0, 1 / math.sqrt(2)))  # exp(-x^2)
    grad_sq = spectral_sq(scipy.fft.fftn(st.values), st.grid)[1]
    assert grad_sq == pytest.approx(math.sqrt(math.pi / 2), abs=1e-10)


def test_l2_of_unit_constant():
    g = GridSpec(1, 2 * math.pi, 64)
    st = FieldState(grid=g, values=np.ones(g.shape, complex))
    assert l2_norm(st) == pytest.approx(math.sqrt(2 * math.pi), rel=1e-14)


def test_l4_and_weighted_norms_of_gaussian():
    g = GridSpec(1, 40.0, 1024)
    st = make_initial(g, Gaussian(1.0, 1 / math.sqrt(2)))  # exp(-x^2)
    rec = TraceRecorder(ModelParams(1, 2.0, -1j), ProbeSet())  # lp is the L^4 norm
    rec.record(st, scipy.fft.fftn(st.values))
    assert rec.rows[0]["lp"] ** 4 == pytest.approx(math.sqrt(math.pi) / 2, abs=1e-10)
    assert math.sqrt(weighted_sq(shell_mass(st.values, g), g)) == pytest.approx(
        math.sqrt(math.sqrt(math.pi / 2) / 4), abs=1e-8
    )
    assert np.max(np.abs(st.values)) == pytest.approx(1.0, rel=1e-14)


def test_parseval_random_fields():
    rng = np.random.default_rng(5)
    for dim, m in ((1, 512), (2, 64)):
        g = GridSpec(dim, 12.0, m)
        st = random_state(g, rng)
        phys = l2_norm(st)
        uk = np.fft.fftn(st.values)
        four = math.sqrt(np.sum(np.abs(uk) ** 2) / uk.size * g.spacing**g.dim)
        assert four == pytest.approx(phys, rel=1e-12)


def test_norms_2d_gaussian():
    g = GridSpec(2, 30.0, 256)
    st = make_initial(g, Gaussian(1.0, 1.0))  # exp(-|x|^2/2)
    assert l2_norm(st) == pytest.approx(math.sqrt(math.pi), rel=1e-10)
    # ||grad u||^2 = int |x|^2 e^{-|x|^2} = pi
    grad_sq = spectral_sq(scipy.fft.fftn(st.values), st.grid)[1]
    assert grad_sq == pytest.approx(math.pi, rel=1e-10)


# ---------------------------------------------------------------------------
# checkpoint files


def test_checkpoint_roundtrip(tmp_path):
    g = GridSpec(2, 12.0, 16)
    st = FieldState(
        grid=g,
        values=np.arange(256, dtype=float).reshape(16, 16) * (1 + 2j),
        time=1.25,
    )
    model = ModelParams(2, 1.5, 0.5 - 1.0j)
    path = tmp_path / "field.nlsf"
    save_checkpoint(path, st, model)
    assert path.stat().st_size == 32 + 16 * 16 * 16
    loaded, loaded_model = load_checkpoint(path)
    assert loaded.grid == g
    assert loaded.time == 1.25
    assert np.array_equal(loaded.values, st.values)
    assert loaded_model == model


def test_checkpoint_roundtrip_is_bit_exact(tmp_path):
    # signed zeros and infinities must come back with their exact bits
    g = GridSpec(1, 10.0, 8)
    vals = np.array([complex(-0.0, 3.0), complex(5.0, -0.0), complex(2.0, math.inf),
                     complex(-math.inf, -0.0), -0j, 0j, complex(-0.0, -0.0), 1.5 - 2.5j])
    path = tmp_path / "edge.nlsf"
    save_checkpoint(path, FieldState(grid=g, values=vals), ModelParams(1, 1.0))
    loaded, _ = load_checkpoint(path)
    assert loaded.values.tobytes() == vals.tobytes()
    assert path.read_bytes()[32:] == vals.astype("<c16").tobytes()  # interleaved (re, im)


def test_checkpoint_header_validation(tmp_path):
    path = tmp_path / "bad.nlsf"
    path.write_bytes(b"XXXX" + b"\0" * 60)
    with pytest.raises(ValueError, match="magic"):
        load_checkpoint(path)
    path.write_bytes(b"NL")
    with pytest.raises(ValueError, match="truncated"):
        load_checkpoint(path)


def test_checkpoint_as_initial_data(tmp_path):
    g = GridSpec(1, 10.0, 64)
    st = random_state(g, np.random.default_rng(6))
    path = tmp_path / "init.nlsf"
    save_checkpoint(path, st, ModelParams(1, 1.0))
    again = make_initial(g, FromFile(str(path)))
    assert np.array_equal(again.values, st.values)
    with pytest.raises(ValueError, match="grid"):
        make_initial(GridSpec(1, 20.0, 64), FromFile(str(path)))


def test_field_state_shape_check():
    g = GridSpec(1, 10.0, 64)
    with pytest.raises(ValueError):
        FieldState(grid=g, values=np.zeros(32, complex))


def test_norms_3d_gaussian():
    g = GridSpec(3, 16.0, 64)
    st = make_initial(g, Gaussian(1.0, 1.0))  # exp(-|x|^2/2)
    # int e^{-|x|^2} = pi^{3/2}
    assert l2_norm(st) ** 2 == pytest.approx(math.pi ** 1.5, rel=1e-10)
    # int |x|^2 e^{-|x|^2} = (3/2) pi^{3/2}
    grad_sq = spectral_sq(scipy.fft.fftn(st.values), st.grid)[1]
    assert grad_sq == pytest.approx(1.5 * math.pi ** 1.5, rel=1e-8)


def test_checkpoint_roundtrip_3d(tmp_path):
    g = GridSpec(3, 8.0, 8)
    rng = np.random.default_rng(17)
    st = FieldState(
        grid=g,
        values=rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape),
        time=0.5,
    )
    path = tmp_path / "cube.nlsf"
    save_checkpoint(path, st, ModelParams(3, 1.0))
    loaded, _ = load_checkpoint(path)
    assert loaded.grid == g
    assert np.array_equal(loaded.values, st.values)


def test_checkpoint_truncated_body(tmp_path):
    g = GridSpec(1, 10.0, 64)
    st = FieldState(grid=g, values=np.ones(g.shape, complex))
    path = tmp_path / "short.nlsf"
    save_checkpoint(path, st, ModelParams(1, 1.0))
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) - 16])  # drop the last complex sample
    with pytest.raises(ValueError, match="samples"):
        load_checkpoint(path)


def test_checkpoint_trailing_bytes(tmp_path):
    g = GridSpec(1, 10.0, 8)
    st = FieldState(grid=g, values=np.ones(g.shape, complex))
    path = tmp_path / "long.nlsf"
    save_checkpoint(path, st, ModelParams(1, 1.0))
    path.write_bytes(path.read_bytes() + bytes(128))  # 8 samples too many
    with pytest.raises(ValueError, match=r"8 complex samples \(160 bytes\), got 288"):
        load_checkpoint(path)
