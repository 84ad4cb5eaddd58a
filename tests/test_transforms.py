import gc
import math
import os
import subprocess
import sys
import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bcct
import bcct.transforms
from bcct.boundary_calculus import (
    AnalyticSeries,
    _cauchy_sum,
    _fft_convolve,
    _fft_correlate,
    analytic_coefficients,
    grid_angles,
)
from bcct.circle_sets import TWO_PI, Arc, rotate_set, validate_set
from bcct.cutoff import build_cutoff, boundary_samples
from bcct.errors import IngredientMismatch
from bcct.factors import Atom, InnerFunction, SingularMeasure, outer_from_weight
from bcct.fixtures import (
    Scale,
    endpoint_atom,
    monomial,
    point_atom,
    standard_member,
    taper_weight,
    two_gap,
)
from bcct.spaces import annihilator_check
from bcct.transforms import (
    MemberIngredients,
    backshift_identity,
    build_member,
    flip_check,
    model_space_orthogonality,
    smooth_transform,
    split_transform,
    interior_lattice,
    transform_coefficients_exact,
)

G = 14


@pytest.fixture(scope="module")
def E():
    return two_gap()


@pytest.fixture(scope="module")
def member_k(E):
    return standard_member("K", monomial(0), G, k_max=12)


class TestBuildMember:
    def test_family_k_structure(self, E, member_k):
        # s0 = conj(zeta g W) sampled: rebuild the factors independently
        w = taper_weight(E, G)
        W = outer_from_weight(w)
        g = build_cutoff(E, k_max=12)
        t = grid_angles(G)
        expect = np.conj(np.exp(1j * t) * boundary_samples(g, G) * W.boundary)
        assert np.max(np.abs(member_k.samples - expect)) <= 1e-12

    def test_vanishing_mean(self):
        # the sampled mean sits at the aliasing floor of the grid; the
        # acceptance-scale configuration pushes it below 1e-8
        m = standard_member("K", monomial(0), 16, k_max=10)
        assert abs(np.mean(m.samples)) <= 1e-6

    def test_ingredient_mismatch_wrong_set(self, E):
        other = validate_set([Arc(0.1, 0.6)])
        w = taper_weight(E, G)
        W = outer_from_weight(w)
        g_other = build_cutoff(other, k_max=6)
        with pytest.raises(IngredientMismatch):
            build_member("K", monomial(0), cutoff=g_other, cutoff_set=other, outer=W)

    def test_set_check_is_exact(self, E):
        # the cut-off's set must equal W's support: a rotation by 1e-13 is
        # another set
        W = outer_from_weight(taper_weight(E, G))
        near = rotate_set(E, 1e-13)
        g_near = build_cutoff(near, k_max=6)
        with pytest.raises(IngredientMismatch, match="different sets"):
            build_member("K", monomial(0), cutoff=g_near, cutoff_set=near, outer=W)

    @pytest.mark.parametrize("family, with_outer, with_theta", [
        ("K", False, False), ("K", True, True), ("K", False, True),
        ("K1", False, False), ("K1", True, True), ("K1", True, False),
        ("K2", False, True), ("K2", True, False), ("K2", False, False),
    ])
    def test_factor_rule(self, E, family, with_outer, with_theta):
        # K takes W and no theta, K1 theta and no W, K2 both
        W = outer_from_weight(taper_weight(E, 10))
        theta = InnerFunction((), SingularMeasure((endpoint_atom(E),)))
        with pytest.raises(IngredientMismatch, match=f"family {family} takes"):
            build_member(family, monomial(0), cutoff=build_cutoff(E, k_max=4), cutoff_set=E,
                         outer=W if with_outer else None,
                         theta=theta if with_theta else None, grid_log2=10)

    def test_k1_needs_measure_zero_carrier(self, E):
        g = build_cutoff(E, k_max=6)
        theta = InnerFunction((), SingularMeasure((Atom(1.0, 0.1),)))
        with pytest.raises(IngredientMismatch):
            build_member("K1", monomial(0), cutoff=g, cutoff_set=E, theta=theta,
                         grid_log2=G)

    def test_k1_smooth_across_carrier(self):
        # spectral decay oracle: the coefficients of s drop fast
        m = standard_member("K1", monomial(0), G, k_max=10)
        c = np.fft.fft(m.samples) / m.size
        mags = np.abs(c)
        peak = mags.max()
        band = np.concatenate([mags[2000:4000], mags[-4000:-2000]])
        assert np.max(band) <= 1e-4 * peak

    def test_members_share_the_weight_mask(self, E):
        # one read-only indicator of E per grid, held by the weight and its members
        W = outer_from_weight(taper_weight(E, G))
        g = build_cutoff(E, k_max=6)
        theta = InnerFunction((), SingularMeasure((endpoint_atom(E),)))
        for family, th in (("K", None), ("K2", theta)):
            m = build_member(family, monomial(0), cutoff=g, cutoff_set=E, outer=W, theta=th)
            assert m.e_mask is W.weight.mask
            assert not m.e_mask.flags.writeable

    def test_ingredients_build_the_same_members(self, E):
        # MemberIngredients hands build_member g's samples, formed once;
        # build_member alone forms the same ones
        W = outer_from_weight(taper_weight(E, G))
        g = build_cutoff(E, k_max=6)
        ingredients = MemberIngredients(E, W, g)
        theta = InnerFunction((), SingularMeasure((endpoint_atom(E),)))
        for family, th in (("K", None), ("K2", theta)):
            got = ingredients.member(monomial(1), th)
            want = build_member(family, monomial(1), cutoff=g, cutoff_set=E, outer=W, theta=th)
            assert got.family == family
            assert np.array_equal(got.samples, want.samples)
            assert np.array_equal(got.q_samples, want.q_samples)
        assert ingredients.cutoff_samples is ingredients.cutoff_samples

    def test_samples_formed_on_first_read(self, E, monkeypatch):
        # a K2 member holds q and theta; theta is sampled on the first read of
        # s and never again, and s is bitwise the eager conj(q) times theta's
        # samples
        W = outer_from_weight(taper_weight(E, G))
        g = build_cutoff(E, k_max=6)
        ingredients = MemberIngredients(E, W, g)
        theta = InnerFunction((), SingularMeasure((endpoint_atom(E),)))
        calls = []
        sample = InnerFunction.boundary_samples

        def counted(th, grid_log2):
            calls.append(grid_log2)
            return sample(th, grid_log2)

        monkeypatch.setattr(InnerFunction, "boundary_samples", counted)
        builds = (
            lambda: ingredients.member(monomial(1), theta),
            lambda: build_member("K2", monomial(1), cutoff=g, cutoff_set=E, outer=W, theta=theta),
        )
        for build in builds:
            calls.clear()
            m = build()
            assert calls == []
            s = m.samples
            assert calls == [G]
            assert m.samples is s
            assert calls == [G]
            assert not s.flags.writeable
            eager = np.conj(m.q_samples)
            np.multiply(sample(theta, G), eager, out=eager)
            assert np.array_equal(s, eager)

    def test_residual_samples_nothing(self, E, monkeypatch):
        # the model-space residual reads q and theta's coefficients only
        k2 = Scale(E, 12, 8).ingredients.member(monomial(0), InnerFunction(
            (), SingularMeasure((endpoint_atom(E),))))
        k1 = standard_member("K1", monomial(0), 12, k_max=8)
        calls = []
        monkeypatch.setattr(InnerFunction, "boundary_samples",
                            lambda th, grid_log2: calls.append(grid_log2))
        for m in (k2, k1):
            model_space_orthogonality(m, max_k=32, band=4096)
        assert calls == []

    def test_monomial_member_takes_no_inverse_fft(self, E, monkeypatch):
        # zeta z^k has one term, so q is formed from root tables; a p with
        # two terms takes the inverse FFT
        ingredients = Scale(E, 12, 8).ingredients
        ingredients.cutoff_samples
        calls = []
        for name in ("ifft", "irfft"):
            inverse = getattr(np.fft, name)
            spy = lambda *a, _name=name, _inverse=inverse, **kw: calls.append(_name) or _inverse(*a, **kw)
            monkeypatch.setattr(np.fft, name, spy)
        for k in (0, 1, 3, 17):
            ingredients.member(monomial(k), None)
        assert calls == []
        ingredients.member(AnalyticSeries([1.0, 1.0]), None)
        assert calls == ["ifft"]

    def test_shared_arrays_are_read_only(self, E):
        # what a Scale builds is shared by its callers, so no caller can
        # write into it
        scale = Scale(E, 12, 8)
        theta = InnerFunction((), SingularMeasure((endpoint_atom(E),)))
        k2 = scale.ingredients.member(monomial(0), theta)
        k1 = standard_member("K1", monomial(0), 12, k_max=8)
        # a flat build shares the pair too, and makes its array of g's
        # samples read-only, since the pair is formed from it
        g_samples = boundary_samples(scale.cutoff, 12)
        flat = build_member("K", monomial(3), cutoff=scale.cutoff, cutoff_set=E,
                            outer=scale.outer, cutoff_samples=g_samples)
        arrays = {
            "K samples": scale.member(0).samples,
            "K q_samples": scale.member(0).q_samples,
            "K2 samples": k2.samples,
            "K2 q_samples": k2.q_samples,
            "K1 samples": k1.samples,
            "outer boundary": scale.outer.boundary,
            "cutoff samples": scale.ingredients.cutoff_samples,
            "pair E side": scale.member(0).pair.sides[0],
            "pair complement": scale.member(0).pair.sides[1],
            "K2 E side": k2.sides()[0],
            "K2 complement": k2.sides()[1],
            "flat cutoff samples": g_samples,
            "flat pair E side": flat.pair.sides[0],
        }
        for k in (0, 1, 3):
            arrays[f"K spectrum view, k = {k}"] = scale.member(k).spectrum
            for side, a in zip(("E side", "complement"), scale.member(k).sides()[:2]):
                arrays[f"K {side}, k = {k}"] = a
        arrays["flat spectrum view"] = flat.spectrum
        for name, a in arrays.items():
            assert not a.flags.writeable, name
            with pytest.raises(ValueError, match="read-only"):
                a *= 2.0

    def test_degenerate_full_circle_excluded(self):
        with pytest.raises(ValueError):
            validate_set([])  # no gaps means the set is the whole circle


class TestSmoothTransform:
    def test_transform_nonzero(self, member_k):
        res = smooth_transform(member_k, fit_window=(64, 1024))
        assert res.nonzero
        assert res.series.norm_h2() > 1e-4

    def test_linearity_in_p(self, E):
        m0 = standard_member("K", monomial(0), G, k_max=12)
        m1 = standard_member("K", monomial(1), G, k_max=12)
        p_mixed = AnalyticSeries([1.0, 2.0])
        m_mixed = standard_member("K", p_mixed, G, k_max=12)
        s0 = smooth_transform(m0).series.coeffs
        s1 = smooth_transform(m1).series.coeffs
        sm = smooth_transform(m_mixed).series.coeffs
        assert np.max(np.abs(sm - (s0 + 2.0 * s1))) <= 1e-10

    def test_slope_improves_under_refinement(self):
        coarse = smooth_transform(
            standard_member("K", monomial(0), 14, k_max=12), fit_window=(64, 1024)
        ).decay_fit
        fine = smooth_transform(
            standard_member("K", monomial(0), 16, k_max=12), fit_window=(64, 1024)
        ).decay_fit
        assert fine <= coarse + 0.5


class TestSpectrum:
    def test_one_fft_of_the_member(self, monkeypatch):
        # Counted from the build on: the member's pair takes its E side and
        # complement side there, the four checks read them, and only the
        # backshift's shifted side takes an FFT of its own input.
        calls = []
        fft = np.fft.fft

        def counted(a, *args, **kwargs):
            calls.append(np.shape(a))
            return fft(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, "fft", counted)
        m = standard_member("K", monomial(0), 10, k_max=8)
        smooth_transform(m)
        flip_check(m)
        backshift_identity(m, 1)
        annihilator_check(m, k_max=0)
        assert len(calls) == 3

    def test_read_only(self, member_k):
        with pytest.raises(ValueError):
            member_k.spectrum[0] = 1.0

    @settings(max_examples=10, deadline=None)
    @given(st.integers(10, 14), st.integers(0, (1 << 14) - 1))
    @example(14, 1)
    @example(12, 37)
    @example(13, (1 << 13) // 3)
    def test_rotation_equivariance(self, log2, j):
        # Rotating E by phi maps s = conj(zeta g W) to e^{-i phi} s(e^{-i phi} zeta),
        # so coefficient r of the Cauchy transform picks up e^{-i (r+1) phi}.
        n = 1 << log2
        phi = TWO_PI * (j % n) / n
        base = standard_member("K", monomial(0), log2, k_max=10)
        rot = standard_member("K", monomial(0), log2, k_max=10, E=rotate_set(two_gap(), phi))
        r = np.arange(n // 2)
        expect = np.exp(-1j * (r + 1) * phi) * base.spectrum[: n // 2]
        err = np.max(np.abs(rot.spectrum[: n // 2] - expect))
        assert err <= 1e-11 * np.max(np.abs(base.spectrum[: n // 2]))


def _flat_ingredients(log2, k_max=8):
    """E, W, g and one array of g's samples, as perfbench's criterion 3 job
    builds them for :func:`build_member`."""
    E = two_gap()
    g = build_cutoff(E, k_max=k_max)
    return E, outer_from_weight(taper_weight(E, log2)), g, boundary_samples(g, log2)


def _count_ffts(monkeypatch):
    calls = []
    fft = np.fft.fft

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return fft(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "fft", counted)
    return calls


class TestSharedPair:
    """The family-K members p = z^k built from one W and one array of g's
    samples read one E side and one complement side, the p = 1 member's,
    from index k on (the DFT shift theorem for s_k = conj(zeta)^k s_0)."""

    def test_criterion_3_members_take_two_ffts(self, monkeypatch):
        # p = 1, z, z^3 as perfbench's criterion 3 job builds and reads them;
        # with a pair of FFTs per member it took 6.  The first build forms the
        # pair, so the reads take none.
        E, W, g, g_samples = _flat_ingredients(12)
        calls = _count_ffts(monkeypatch)
        built, read = [], []
        for k in (0, 1, 3):
            before = len(calls)
            m = build_member("K", monomial(k), cutoff=g, cutoff_set=E, outer=W,
                             cutoff_samples=g_samples)
            built.append(len(calls) - before)
            smooth_transform(m)
            flip_check(m)
            read.append(len(calls) - before - built[-1])
        assert built == [2, 0, 0]
        assert read == [0, 0, 0]
        assert calls == [(1 << 12,)] * 2

    def test_both_builders_reach_the_pair(self, E):
        scale = Scale(E, 12, 8)
        pair = scale.member(0).pair
        assert pair is not None
        assert all(scale.member(k).pair is pair for k in (1, 3, 17))
        assert [scale.member(k).shift for k in (0, 1, 3, 17)] == [0, 1, 3, 17]
        assert scale.ingredients.member(monomial(5), None).pair is pair
        flat = build_member("K", monomial(2), cutoff=scale.cutoff, cutoff_set=E, outer=scale.outer,
                            cutoff_samples=scale.ingredients.cutoff_samples)
        assert flat.pair is pair

    def test_what_keeps_its_own_ffts(self):
        # a general p, a monomial with another coefficient, K2, and a member
        # whose g samples are formed in build_member each form their own
        # spectra; so test_linearity_in_p compares independent computations
        E, W, g, g_samples = _flat_ingredients(10)
        theta = InnerFunction((), SingularMeasure((endpoint_atom(E),)))
        kw = dict(cutoff=g, cutoff_set=E, outer=W)
        unshared = [
            build_member("K", AnalyticSeries([1.0, 2.0]), **kw, cutoff_samples=g_samples),
            build_member("K", AnalyticSeries([0.0, 2.0]), **kw, cutoff_samples=g_samples),
            build_member("K2", monomial(0), **kw, theta=theta, cutoff_samples=g_samples),
            build_member("K", monomial(1), **kw),
        ]
        assert all(m.pair is None and m.shift == 0 for m in unshared)
        assert build_member("K", monomial(1), **kw, cutoff_samples=g_samples).pair is not None

    @pytest.mark.parametrize("log2", [8, 12, 16])
    @pytest.mark.parametrize("k", [0, 1, 3, 17])
    def test_shift_is_the_members_own_fft(self, log2, k):
        # At 2^8 the flip's Cauchy sums keep all n terms, so for k >= 1 their
        # heads wrap round the pair's spectra.  Measured: the sides within
        # 3.9e-16 max|c| of the member's own FFTs, both Cauchy sums within
        # 3.6e-16 max|c|, and the flip within 8.1e-15 of the member's own.
        E, W, g, g_samples = _flat_ingredients(log2)
        m = build_member("K", monomial(k), cutoff=g, cutoff_set=E, outer=W, cutoff_samples=g_samples)
        n = m.size
        e_side, complement, shift = m.sides()
        assert shift == k
        assert np.shares_memory(m.spectrum, e_side)
        z = interior_lattice(64, 0.9)
        for side, mask in ((e_side, m.e_mask), (complement, ~m.e_mask)):
            own = np.fft.fft(m.samples * mask) / n
            tol = 1e-15 * np.max(np.abs(own))
            assert np.max(np.abs(np.roll(side, -k) - own)) <= tol
            assert np.max(np.abs(_cauchy_sum(side, z, k) - _cauchy_sum(own, z))) <= tol
        own_e = np.fft.fft(m.samples * m.e_mask) / n
        assert np.max(np.abs(m.spectrum[: n // 2] - own_e[: n // 2])) <= 1e-15 * np.max(np.abs(own_e))
        copy = replace(m)
        assert copy.pair is None
        assert abs(flip_check(m) - flip_check(copy)) <= 5e-14

    def test_replace_forms_its_own_spectra(self, monkeypatch):
        E, W, g, g_samples = _flat_ingredients(10)
        m = build_member("K", monomial(1), cutoff=g, cutoff_set=E, outer=W, cutoff_samples=g_samples)
        flip_check(m)
        copy = replace(m)
        assert copy.pair is None and copy.shift == 0
        calls = _count_ffts(monkeypatch)
        smooth_transform(copy)
        flip_check(copy)
        assert len(calls) == 2
        assert not np.shares_memory(copy.spectrum, m.pair.sides[0])

    def test_pair_is_freed_without_the_collector(self):
        # The pair holds W and g's samples, and its members hold it; nothing
        # refers back, so reference counting frees it once they are gone.
        gc.disable()
        try:
            E, W, g, g_samples = _flat_ingredients(10)
            members = [build_member("K", monomial(k), cutoff=g, cutoff_set=E, outer=W,
                                    cutoff_samples=g_samples) for k in (0, 1, 3)]
            for m in members:
                flip_check(m)
            pair = weakref.ref(members[0].pair)
            sides = [weakref.ref(a) for a in pair().sides]
            del m, members, W, g_samples
            assert pair() is None
            assert all(a() is None for a in sides)
        finally:
            gc.enable()

    def test_memory_of_the_criterion_3_loop(self):
        # Criterion 3's loop on 2^16 points, with W and g's samples formed
        # beforehand, in units of one complex grid array.  Its traced peak is
        # 4.27, as it was when each member formed its own spectra (then: a
        # member's q, s, spectrum and complement side).  tracemalloc does not
        # see the scratch that pocketfft mallocs per transform (two grid
        # arrays for a complex one); test_rss_of_the_criterion_3_loop counts
        # it.  Three members kept at once hold their q and the pair: 5.01,
        # where three grid arrays per member (q, s and spectrum) held 9.01.
        E, W, g, g_samples = _flat_ingredients(16, k_max=16)
        unit = 16 << 16
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            for k in (0, 1, 3):
                m = build_member("K", monomial(k), cutoff=g, cutoff_set=E, outer=W,
                                 cutoff_samples=g_samples)
                smooth_transform(m).decay_fit
                flip_check(m)
                np.mean(m.samples)
            peak = tracemalloc.get_traced_memory()[1] - base
            del m
            kept = [build_member("K", monomial(k), cutoff=g, cutoff_set=E, outer=W,
                                 cutoff_samples=g_samples) for k in (0, 1, 3)]
            for m in kept:
                smooth_transform(m)
                flip_check(m)
                np.mean(m.samples)
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert peak <= 4.5 * unit
        assert held <= 5.25 * unit

    def test_rss_of_the_criterion_3_loop(self):
        # Criterion 3's loop on 2^20 points in a fresh interpreter, once W,
        # g's samples and the grid's FFT plan exist.  The first build forms
        # the pair before its q, and transforms the complement side in s_0's
        # own buffer, so the loop's peak (q, s and the two sides) stays within
        # what the process had touched before it: the peak RSS grew by 1 MB
        # under the benchmark's malloc settings and by 9.1 MB under glibc's
        # defaults (11.9 MB with the taper weight's whole-grid temporaries
        # before it).  A pair formed on the first read, next to the member's q
        # and with a complement product of its own, grew it by 32.9 and
        # 43.7 MB.  The bound is one complex grid array (16 MB).
        code = (
            "import resource; "
            "import numpy as np; "
            "from bcct.cutoff import boundary_samples, build_cutoff; "
            "from bcct.factors import outer_from_weight; "
            "from bcct.fixtures import monomial, taper_weight, two_gap; "
            "from bcct.transforms import build_member, flip_check, smooth_transform; "
            "E = two_gap(); W = outer_from_weight(taper_weight(E, 20)); "
            "g = build_cutoff(E, k_max=16); g_samples = boundary_samples(g, 20); "
            "np.fft.fft(np.zeros(1 << 20, complex)); "
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "for k in (0, 1, 3):\n"
            "    m = build_member('K', monomial(k), cutoff=g, cutoff_set=E, outer=W, "
            "cutoff_samples=g_samples)\n"
            "    smooth_transform(m).decay_fit; flip_check(m); np.mean(m.samples)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(bcct.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True)
        assert int(proc.stdout) <= 16 * 1024  # ru_maxrss is in kB on Linux

    def test_rss_of_all_of_criterion_3(self):
        # All of criterion 3 on 2^20 points in a fresh interpreter, once the
        # grid's FFT plans exist: the taper weight, W, g's samples and the
        # loop.  The weight is built with no grid-sized temporaries, so the
        # peak is that of the arrays the pair's second transform needs: W,
        # g's samples, the two sides and pocketfft's scratch.  The peak RSS
        # grew by 57.7 MB, under the benchmark's malloc settings and under
        # glibc's defaults alike; a weight formed over a whole-grid angle
        # array, and checked on a gathered copy of its carrier samples, grew
        # it by 66.8 MB.  The bound lies between the two.
        code = (
            "import resource; "
            "import numpy as np; "
            "from bcct.cutoff import boundary_samples, build_cutoff; "
            "from bcct.factors import outer_from_weight; "
            "from bcct.fixtures import monomial, taper_weight, two_gap; "
            "from bcct.transforms import build_member, flip_check, smooth_transform; "
            "E = two_gap(); g = build_cutoff(E, k_max=16); "
            "np.fft.ifft(np.fft.fft(np.zeros(1 << 20, complex))); "
            "np.fft.irfft(np.fft.rfft(np.zeros(1 << 20))); "
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "W = outer_from_weight(taper_weight(E, 20)); g_samples = boundary_samples(g, 20)\n"
            "for k in (0, 1, 3):\n"
            "    m = build_member('K', monomial(k), cutoff=g, cutoff_set=E, outer=W, "
            "cutoff_samples=g_samples)\n"
            "    smooth_transform(m).decay_fit; flip_check(m); np.mean(m.samples)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(bcct.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True)
        assert int(proc.stdout) <= 62 * 1024  # ru_maxrss is in kB on Linux


class TestFlip:
    def test_flip_small_at_module_scale(self, member_k):
        # the two quadratures agree at the resolution of this grid;
        # the tight certification runs at the acceptance configuration
        assert flip_check(member_k) <= 1e-2

    def test_flip_coefficient_form(self, member_k):
        # coefficients of the set side equal minus the complement side
        n = member_k.size
        full = np.fft.fft(member_k.samples)[: n // 2] / n
        on_e = np.fft.fft(member_k.samples * member_k.e_mask)[: n // 2] / n
        off_e = full - on_e
        scale = np.max(np.abs(on_e))
        assert np.max(np.abs(on_e + off_e)) <= 2e-2 * scale

    def test_negative_control_mean_offset(self, E, member_k):
        from dataclasses import replace

        # for family K, conj(q + 0.05) is conj(q) + 0.05 bit for bit
        bad = replace(member_k, q_samples=member_k.q_samples + 0.05)
        assert np.array_equal(bad.samples, member_k.samples + 0.05)
        assert flip_check(bad) > 1e-2

    def test_family_guard(self):
        m1 = standard_member("K1", monomial(0), G)
        with pytest.raises(IngredientMismatch):
            flip_check(m1)


class TestBackshift:
    def test_first_shift(self, member_k):
        assert backshift_identity(member_k, 1) <= 1e-10

    def test_zero_shift_identity(self, member_k):
        assert backshift_identity(member_k, 0) <= 1e-15

    def test_shift_range(self, member_k):
        for k in range(1, 9):
            assert backshift_identity(member_k, k) <= 1e-10

    def test_polynomial_in_shift_linearity(self, E):
        # p(L) applied to the base transform equals the transform of the
        # member built with p, for p = 1 + 2z
        p = AnalyticSeries([1.0, 2.0])
        base = smooth_transform(standard_member("K", monomial(0), G, k_max=12)).series.coeffs
        lhs = base[:-1] + 2.0 * base[1:]  # the final entry lacks shifted input
        rhs = smooth_transform(standard_member("K", p, G, k_max=12)).series.coeffs
        assert np.max(np.abs(lhs - rhs[: len(lhs)])) <= 1e-10


class TestModelSpace:
    def test_theta_one_kills_k1_transform(self):
        F, _ = point_atom()
        g_F = build_cutoff(F, k_max=8)
        m = build_member("K1", monomial(0), cutoff=g_F, cutoff_set=F,
                         theta=InnerFunction(), grid_log2=G)
        series = transform_coefficients_exact(m, band=1024)
        assert series.norm_h2() <= 1e-8

    def test_atomic_theta_orthogonality(self):
        m = standard_member("K1", monomial(0), G)
        assert model_space_orthogonality(m, max_k=32, band=8192) <= 1e-8

    def test_blaschke_theta_orthogonality(self):
        theta = InnerFunction((0.5,))
        m = standard_member("K1", monomial(1), G, theta=theta)
        assert model_space_orthogonality(m, max_k=32, band=4096) <= 1e-8

    def test_k2_endpoint_atom(self):
        # module-scale bound; the acceptance suite certifies 1e-7 at the
        # fine-grid configuration
        m = standard_member("K2", monomial(0), G, k_max=12)
        assert model_space_orthogonality(m, max_k=32, band=1 << 17) <= 1e-4

    def test_theta_coefficients_computed_once(self, monkeypatch):
        m = standard_member("K2", monomial(0), 12, k_max=8)
        bands = []
        frame = InnerFunction.coefficient_frame

        def counted(theta, band):
            bands.append(band)
            return frame(theta, band)

        monkeypatch.setattr(InnerFunction, "coefficient_frame", counted)
        model_space_orthogonality(m, max_k=32, band=4096)
        assert len(bands) == 1

    @pytest.mark.parametrize("theta", [None, InnerFunction((0.5,))], ids=["atom", "blaschke"])
    def test_lag_sums_match_fft_correlation(self, theta):
        # The full cross-correlation of the transform with theta, by FFT;
        # its rounding error is of order eps |c_s| |theta|, which sets the scale.
        kw = {} if theta is None else {"theta": theta}
        m = standard_member("K2" if theta is None else "K1", monomial(0), 12, k_max=8, **kw)
        band = 4096
        c_s = transform_coefficients_exact(m, band).coeffs
        th = m.theta.coefficients(band)
        r = np.abs(_fft_convolve(c_s, np.conj(th[band::-1]))[band : band + 33])
        scale = np.linalg.norm(c_s) * np.linalg.norm(th[: band + 1])
        assert abs(model_space_orthogonality(m, max_k=32, band=band) - np.max(r)) <= 1e-13 * scale


def _permanence_members(grid_log2, theta=None):
    # the four K2 members of the permanence check, p = z^0..z^3, on one theta
    # (by default the endpoint atom), each built with its own q: the oracle's
    # input
    E = two_gap()
    if theta is None:
        theta = InnerFunction((), SingularMeasure((endpoint_atom(E),)))
    ingredients = Scale(E, grid_log2, 8).ingredients
    return [ingredients.member(monomial(j), theta) for j in range(4)]


def _lag_sum_residual(members, max_k, band):
    # The direct lag sums r_k = sum_{m=0}^{band-k} conj(theta_m) c_{m+k},
    # with c_n = sum_j conj(q_j) theta_{n+j} by one FFT convolution per
    # member.  Returns max |r_k| and the scale |c_s| |theta| of its rounding.
    resid, scale = [], 0.0
    for m in members:
        q_band = min(band, m.size // 2 - 1)
        q = analytic_coefficients(m.q_samples, q_band).coeffs
        if m.theta.is_trivial:
            resid.append(abs(q[0]))
            scale = max(scale, abs(q[0]))
            continue
        th = m.theta.coefficients(band + q_band + 1)
        c = _fft_convolve(th, np.conj(q[::-1]))[q_band : q_band + band + 1]
        r = [np.vdot(th[: band + 1 - k], c[k:]) for k in range(min(max_k, band) + 1)]
        resid.append(np.max(np.abs(r)))
        scale = max(scale, np.linalg.norm(c) * np.linalg.norm(th[: band + 1]))
    return max(resid), scale


# Each case is the flat members the oracle reads and a band; the residual
# reads the first of them with count = their number, the others at a shift.
ORTHOGONALITY_CASES = {
    "one_member": lambda: ([standard_member("K2", monomial(0), 12, k_max=8)], 4096),
    "permanence_members": lambda: (_permanence_members(12), 4096),
    "permanence_members_grid10": lambda: (_permanence_members(10), 4096),
    "permanence_members_grid14": lambda: (_permanence_members(14), 8192),
    # theta = 1 at the permanence check's default band: q_j's coefficient 0
    # is q_0's entry -j
    "permanence_members_trivial": lambda: (_permanence_members(12, InnerFunction()), 1 << 19),
    "band_below_max_k": lambda: ([standard_member("K2", monomial(0), 12, k_max=8)], 16),
    # q_band = 2^10/2 - 1 = 511 < band
    "k1_q_band_below_band": lambda: ([standard_member("K1", monomial(0), 10, k_max=8)], 4096),
    "blaschke": lambda: (
        [standard_member("K1", monomial(1), 12, k_max=8, theta=InnerFunction((0.5,)))], 4096),
    "trivial": lambda: (
        [standard_member("K1", monomial(0), 12, k_max=8, theta=InnerFunction())], 1024),
    # the phi = 0 complex frame on mixed factors
    "two_atoms": lambda: (
        [standard_member("K2", monomial(0), 12, k_max=8, theta=InnerFunction(
            (), SingularMeasure((Atom(0.0, 0.1), Atom(2.5, 0.3)))))], 4096),
    "atom_and_blaschke": lambda: (
        [standard_member("K2", monomial(1), 12, k_max=8, theta=InnerFunction(
            (0.3 - 0.4j,), SingularMeasure((Atom(0.0, 0.1),))))], 4096),
    # one atom off the axis: the real frame with w = e^{-2.5 i}
    "atom_at_angle": lambda: (
        [standard_member("K2", monomial(0), 12, k_max=8, theta=InnerFunction(
            (), SingularMeasure((Atom(2.5, 0.3),))))], 4096),
}


class TestAutocorrelationResidual:
    @pytest.mark.parametrize("case", sorted(ORTHOGONALITY_CASES))
    def test_matches_direct_lag_sums(self, case):
        members, band = ORTHOGONALITY_CASES[case]()
        ref, scale = _lag_sum_residual(members, 32, band)
        got = model_space_orthogonality(members[0], 32, band, count=len(members))
        assert abs(got - ref) <= 1e-13 * scale

    @pytest.mark.parametrize("M", [0, 1, 17, 40, 64])
    def test_correlation_matches_mpmath(self, M):
        # B_l = sum_{m=0}^{M} conj(theta_m) theta_{m+l}, l = 0..band, for one
        # atom of mass 0.3 at angle 0.7 and band 64, with the terms past
        # theta_band absent; theta_n = e^{-0.7 i n} e^{-0.3}
        # (L_n(0.6) - L_{n-1}(0.6)) at 40 digits.
        band = 64
        th = InnerFunction((), SingularMeasure((Atom(0.7, 0.3),))).coefficients(band)
        got = _fft_correlate(th[: M + 1], th, band + 1)
        assert got.shape == (band + 1,)
        with mpmath.workdps(40):
            mass, x = mpmath.mpf(0.3), mpmath.mpf(0.6)
            laguerre = [mpmath.laguerre(n, 0, x) for n in range(band + 1)]
            ref = [mpmath.exp(-mass) * mpmath.expj(-mpmath.mpf(0.7) * n)
                   * (laguerre[n] - (laguerre[n - 1] if n else 0)) for n in range(band + 1)]
            for k in range(band + 1):
                b = mpmath.fsum(
                    mpmath.conj(ref[m]) * ref[m + k] for m in range(min(M, band - k) + 1)
                )
                assert abs(got[k] - complex(b)) <= 1e-14, k

    def test_one_correlation_for_four_members(self, monkeypatch):
        member = _permanence_members(12)[0]
        calls = []

        def counted(a, b, lags):
            calls.append((len(a), len(b), lags))
            return _fft_correlate(a, b, lags)

        monkeypatch.setattr(bcct.transforms, "_fft_correlate", counted)
        model_space_orthogonality(member, 32, 4096, count=4)
        # theta's autocorrelation over m <= band - 32, lags 0..q_band + 32,
        # of theta's coefficients 0..band + q_band: the last lag reads no further
        assert calls == [(4096 - 32 + 1, 4096 + 2047 + 1, 2047 + 33)]

    def test_residual_does_not_follow_blas_threads(self):
        # q_band + 1 = 2^15 terms per window dot: a BLAS dot this long sums in
        # an order that follows OpenBLAS's thread count; verdicts must not
        # depend on the CPUs, so the residual's last digits must not either.
        code = (
            "from bcct.fixtures import standard_member, monomial; "
            "from bcct.transforms import model_space_orthogonality as f; "
            "m = standard_member('K2', monomial(0), 16, k_max=8); "
            "print(repr(f(m, max_k=32, band=1 << 16)))"
        )
        residuals = set()
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=str(Path(bcct.__file__).parents[1]),
                       OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                  text=True, check=True)
            residuals.add(proc.stdout)
        assert len(residuals) == 1

    def test_residual_memory_follows_the_lags(self):
        # model-space-deep's K2 job in a fresh interpreter: theta's
        # autocorrelation over a band of 2^20 runs in blocks of 131220
        # entries, so the peak RSS grows by about 13 MB across the call; one
        # transform over the whole band grew it by 33 MB.
        code = (
            "import resource; "
            "from bcct.fixtures import standard_member, monomial; "
            "from bcct.transforms import model_space_orthogonality as f; "
            "m = standard_member('K2', monomial(0), 18, k_max=12); "
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss; "
            "f(m, 32, 1 << 20); "
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(bcct.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True)
        assert int(proc.stdout) <= 20 * 1024  # ru_maxrss is in kB on Linux

    def test_nan_theta_coefficients_propagate(self, monkeypatch):
        m = standard_member("K2", monomial(0), 12, k_max=8)
        frame = InnerFunction.coefficient_frame

        def with_nan(theta, band):
            phi, a = frame(theta, band)
            a = a.copy()
            a[5] = np.nan
            return phi, a

        monkeypatch.setattr(InnerFunction, "coefficient_frame", with_nan)
        assert math.isnan(model_space_orthogonality(m, max_k=32, band=4096))


class TestSplit:
    def test_additivity(self, E):
        m = standard_member("K2", monomial(0), G, k_max=12)
        res = split_transform(m)
        n = m.size
        whole = np.fft.fft(m.samples)[: n // 2] / n
        assert np.max(np.abs(res.u1.coeffs + res.u2.coeffs - whole)) <= 1e-10

    def test_smooth_piece_decay(self):
        m = standard_member("K2", monomial(0), 16, k_max=14)
        res = split_transform(m)
        assert bcct.transforms._decay_slope(res.u1.coeffs, (64, 1024)) <= -3.0

    def test_u2_functional_constants(self, E):
        w = taper_weight(E, G)
        m = standard_member("K2", monomial(0), G, k_max=12)
        res = split_transform(m)
        # ||z^k sqrt(w)||_{L^2(E)} is independent of k; <z^k, u2> = conj(u2_k)
        wnorm = math.sqrt(float(np.sum(w.values[w.mask])) / m.size)
        consts = np.abs(res.u2.coeffs[:33]) / wnorm
        assert len(consts) == 33
        # fitted constants stabilize: later maxima do not outgrow early ones
        assert np.max(consts[9:]) <= 2.0 * np.max(consts[:9])

    def test_u2_is_the_member_spectrum(self, monkeypatch):
        # u2 = C_{s 1_E} is read from the member's E-side spectrum; the split
        # takes one FFT of its own, for the complement side u1
        m = standard_member("K2", monomial(0), 12, k_max=8)
        n = m.size
        m.spectrum
        calls = []
        fft = np.fft.fft

        def counted(a, *args, **kwargs):
            calls.append(np.shape(a))
            return fft(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, "fft", counted)
        res = split_transform(m)
        assert calls == [(n,)]
        assert np.shares_memory(res.u2.coeffs, m.spectrum)
        want = fft(m.samples * m.e_mask)[: n // 2] / n
        assert np.array_equal(res.u2.coeffs, want)

    def test_family_guard(self, member_k):
        with pytest.raises(IngredientMismatch):
            split_transform(member_k)
