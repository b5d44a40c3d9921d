"""The locus refine, which re-tests only the intervals its last pass split.

Every locus is checked bit for bit against an inline copy of the old refine,
which re-scans, re-concatenates and re-sorts the whole locus on every pass;
the work it saves is checked by count, not by time.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imexssp import stability
from imexssp.schemes import BUILTIN_IDS, char_polys, implicit_centred, scheme_from_id, ssp_explicit
from imexssp.stability import explicit_boundary, implicit_boundary

BOUNDARY = {"explicit": explicit_boundary, "implicit": implicit_boundary}
# label -> (scheme, locus kind): every built-in locus and the ten
# implicit-centred (k, beta) loci that centred-angle-closed-form builds
LOCI = {f"{sid}-{kind}": (scheme_from_id(sid), kind) for sid in BUILTIN_IDS
        for kind, poly in (("explicit", "B"), ("implicit", "C"))
        if getattr(char_polys(scheme_from_id(sid)), poly).any()}
LOCI.update({f"implicit-centred-k{k}-beta{beta}": (implicit_centred(k, beta), "implicit")
             for k in (3, 4) for beta in (0.0, 0.1, 0.25, 0.4, 0.5)})


def old_refine_locus(image, curve):
    """_refine_locus as it was: every pass tests every adjacent pair of the
    whole locus and sorts the midpoints in."""
    theta, values, pole = curve.theta, curve.values, curve.is_pole
    for _ in range(8):
        v0, v1 = values[:-1], values[1:]
        both = ~(pole[:-1] | pole[1:])
        dv = np.abs(v1 - v0)
        scale = np.maximum(1.0, np.minimum(np.abs(v0), np.abs(v1)))
        with np.errstate(invalid="ignore", divide="ignore"):
            darg = np.abs(np.angle(np.where(both, v1, 1.0) / np.where(both, v0, 1.0)))
        bad = both & (dv > 1e-6) & ((dv > 0.02 * scale) | (darg > 0.05))
        if not bad.any():
            break
        mid = 0.5 * (theta[:-1][bad] + theta[1:][bad])
        mv, mp = image.sample(0.0, mid)
        theta = np.concatenate([theta, mid])
        values = np.concatenate([values, mv])
        pole = np.concatenate([pole, mp])
        order = np.argsort(theta)
        theta, values, pole = theta[order], values[order], pole[order]
    return stability.BoundaryCurve(theta, values, pole, curve.asymptotes)


def assert_same_as_old(monkeypatch, build):
    new = build()
    with monkeypatch.context() as m:
        m.setattr(stability, "_refine_locus", old_refine_locus)
        old = build()
    for name in ("theta", "values", "is_pole", "asymptotes"):
        x, y = getattr(new, name), getattr(old, name)
        assert x.dtype == y.dtype and x.shape == y.shape, name
        assert x.tobytes() == y.tobytes(), name


@pytest.mark.parametrize("n", [16, 1024, 4096])
@pytest.mark.parametrize("s,kind", LOCI.values(), ids=LOCI.keys())
def test_loci_bit_identical(monkeypatch, s, kind, n):
    assert_same_as_old(monkeypatch, lambda: BOUNDARY[kind](s, n))


@settings(max_examples=40, deadline=None)
@given(k=st.sampled_from([3, 4]),
       beta=st.floats(0.0, 0.5),
       n=st.integers(16, 4096))
def test_centred_family_bit_identical(k, beta, n):
    s = implicit_centred(k, beta)
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert_same_as_old(monkeypatch, lambda: implicit_boundary(s, n))


class Counts:
    """Wraps _ImageMap.family, _ImageMap.sample and _too_coarse: the points
    each evaluation takes (the first is the initial grid, which family
    evaluates) and, per pass, the intervals tested and the intervals split."""

    def __init__(self, monkeypatch):
        self.evaluated, self.tested, self.split = [], [], []
        family, sample = stability._ImageMap.family, stability._ImageMap.sample
        too_coarse = stability._too_coarse

        def counting_family(image, lams, n):
            curves = family(image, lams, n)
            self.evaluated.extend(len(curve) for curve in curves)
            return curves

        def counting_eval(image, lam, theta):
            self.evaluated.append(len(theta))
            return sample(image, lam, theta)

        def counting_test(*args):
            bad = too_coarse(*args)
            self.tested.append(len(bad))
            self.split.append(int(bad.sum()))
            return bad

        monkeypatch.setattr(stability._ImageMap, "family", counting_family)
        monkeypatch.setattr(stability._ImageMap, "sample", counting_eval)
        monkeypatch.setattr(stability, "_too_coarse", counting_test)


@pytest.mark.parametrize("s,kind", LOCI.values(), ids=LOCI.keys())
def test_refine_work_by_count(monkeypatch, s, kind):
    counts = Counts(monkeypatch)
    curve = BOUNDARY[kind](s)
    initial, *midpoints = counts.evaluated
    assert sum(midpoints) == len(curve) - initial
    assert counts.tested[0] == initial - 1
    assert midpoints == [n for n in counts.split if n]
    for before, now in zip(counts.split, counts.tested[1:]):
        assert now <= 2 * before


def test_ssp3_explicit_locus_evaluates_eight_midpoints(monkeypatch):
    """The one interval split on every pass is the one next to the origin
    crossing at theta = 0: one midpoint a pass, eight in all."""
    counts = Counts(monkeypatch)
    explicit_boundary(ssp_explicit(3), 1024)
    assert counts.evaluated[1:] == [1] * 8
    assert counts.tested == [1023] + [2] * 7
