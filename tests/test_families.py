import dataclasses
import subprocess
import sys

import numpy as np
import pytest

from dyadicpara import (
    AdaptedFamily,
    ContractError,
    adaptedness_check,
    families,
    rectangle,
)


def test_kind_validation():
    with pytest.raises(ContractError):
        AdaptedFamily.make("triangle", 1)
    with pytest.raises(ContractError):
        AdaptedFamily("haar", 1, (True, True))


@pytest.mark.parametrize("entry", ["no", "", 0, 1, 0.0, None, [], np.int64(1)])
def test_zero_pattern_refuses_an_entry_that_is_not_a_bool(entry):
    # read by its truth value, "no" was a zero and 0 none
    with pytest.raises(ContractError, match="zero pattern"):
        AdaptedFamily.make("haar", 2, (True, entry))
    with pytest.raises(ContractError, match="zero pattern"):
        AdaptedFamily("gaussian-smooth", 1, (entry,))


def test_zero_pattern_takes_numpy_bools():
    fam = AdaptedFamily.make("haar", 2, np.array([True, False]))
    assert fam == AdaptedFamily.make("haar", 2, (True, False))
    assert hash(fam) == hash(AdaptedFamily.make("haar", 2, (True, False)))
    assert fam.zero_pattern == (True, False)
    assert all(type(z) is bool for z in fam.zero_pattern)


def test_a_family_is_its_kind_d_and_zero_pattern():
    # the envelope constants K and N are the module's, not a family's
    assert [f.name for f in dataclasses.fields(AdaptedFamily)] == ["kind", "d", "zero_pattern"]


@pytest.mark.parametrize("kind", ["haar", "abs-haar", "gaussian-smooth", "gaussian-bump"])
def test_profiles_unit_norm(kind):
    fam = AdaptedFamily.make(kind, 1)
    L = 6
    for k in range(L):
        for j in range(1 << k):
            phi = fam.axis_profile(0, k, j, L)
            assert np.sum(phi**2) * 2.0**-L == pytest.approx(1.0, rel=1e-12)


def test_zero_flag_enforced_on_grid():
    L = 6
    smooth = AdaptedFamily.smooth(1)
    for k in range(L):
        for j in range(1 << k):
            phi = smooth.axis_profile(0, k, j, L)
            assert abs(np.sum(phi) * 2.0**-L) < 1e-14
    haar = AdaptedFamily.haar(1)
    for k in range(L):
        for j in range(1 << k):
            assert np.sum(haar.axis_profile(0, k, j, L)) == 0.0


def test_abs_haar_pairs_with_constants():
    fam = AdaptedFamily.abs_haar(1)
    L = 5
    ones = np.ones(1 << L)
    for k in range(L):
        phi = fam.axis_profile(0, k, 0, L)
        assert np.sum(ones * phi) * 2.0**-L == pytest.approx(
            2.0 ** (-k / 2), rel=1e-12
        )


def test_tensor_profile():
    fam = AdaptedFamily.haar(2)
    prof = fam.rectangle_profile(rectangle((0, 0), (1, 1)), 3)
    a = fam.axis_profile(0, 0, 0, 3)
    b = fam.axis_profile(1, 1, 1, 3)
    assert np.allclose(prof, np.multiply.outer(a, b))


def test_adaptedness_haar():
    report = adaptedness_check(AdaptedFamily.haar(1), 5)
    assert report["size_constant"] <= 1.0
    assert report["size_within_declared"]
    assert report["zeros_ok"]


def test_adaptedness_gaussian(monkeypatch):
    report = adaptedness_check(AdaptedFamily.smooth(1), 5)
    assert np.isfinite(report["size_constant"])
    assert np.isfinite(report["derivative_constant"])
    assert report["zeros_ok"]
    assert (report["K"], report["N"]) == (families.K, families.N) == (1.0, 8)
    monkeypatch.setattr(families, "K", report["size_constant"] * 1.01)
    retry = adaptedness_check(AdaptedFamily.smooth(1), 5)
    assert retry["size_within_declared"]


def test_adaptedness_negative_control():
    # a claimed-zero family whose injected profiles skip the correction
    fam = AdaptedFamily.smooth(1)
    bump = AdaptedFamily.smooth_bump(1)

    def override(axis, k, j, L):
        return bump.axis_profile(axis, k, j, L)

    report = adaptedness_check(fam, 4, profile_override=override)
    assert not report["zeros_ok"]


def test_almost_orthogonality_bound():
    """|<phi_I, phi_J>| <= C (|I|/|J|)^(3/2) (1 + |c(I)-c(J)|/|J|)^(-2)
    holds with a finite C over all pairs with |I| <= |J| at L=6."""
    fam = AdaptedFamily.smooth(1)
    L = 6
    profs = {
        (k, j): fam.axis_profile(0, k, j, L)
        for k in range(L)
        for j in range(1 << k)
    }
    worst = 0.0
    for (k1, j1), p1 in profs.items():
        for (k2, j2), p2 in profs.items():
            if k1 < k2:  # require |I| <= |J|
                continue
            rho = abs(float(np.sum(p1 * p2)) * 2.0**-L)
            c1 = (j1 + 0.5) * 2.0**-k1
            c2 = (j2 + 0.5) * 2.0**-k2
            bound = (2.0 ** -(k1 - k2)) ** 1.5 * (1 + abs(c1 - c2) * 2.0**k2) ** -2
            worst = max(worst, rho / bound)
    assert np.isfinite(worst)
    assert worst < 100.0


@pytest.mark.parametrize("kind", ["abs-haar", "gaussian-smooth"])
def test_profile_matrix_does_not_cache_rows(kind):
    # rows and matrices other tests cached would hide new ones, so start the
    # caches empty
    families._step_profile_cached.cache_clear()
    families._gaussian_profile_cached.cache_clear()
    families._profile_matrix_cached.cache_clear()
    fam = AdaptedFamily.make(kind, 1)
    misses = families._profile_matrix_cached.cache_info().misses
    matrix = fam.profile_matrix(0, 7)
    assert families._profile_matrix_cached.cache_info().misses == misses + 1
    assert families._step_profile_cached.cache_info().currsize == 0
    assert families._gaussian_profile_cached.cache_info().currsize == 0
    assert np.array_equal(matrix[(1 << 3) + 5], fam.axis_profile(0, 3, 5, 7))


@pytest.mark.parametrize("kind", ["haar", "abs-haar"])
@pytest.mark.parametrize("zero", [False, True])
def test_step_matrix_vanishes_outside_diagonal_blocks(kind, zero):
    # the step-block transform reads only these blocks: row 2^k + j is zero
    # outside the 2^(L-k) cells of interval (k, j)
    # uncached; at L=13 it spans 512 MiB, of which about 32 MiB are resident
    build = families._profile_matrix_cached.__wrapped__
    fam = AdaptedFamily.make(kind, 1, (zero,))
    for L in range(1, 14):
        matrix = build(fam.is_smooth, fam.zero_pattern[0], L)
        n = 1 << L
        inside = sum(
            np.count_nonzero(
                matrix[1 << k : 2 << k].reshape(1 << k, 1 << k, n >> k).diagonal(axis1=0, axis2=1)
            )
            for k in range(L)
        )
        assert np.count_nonzero(matrix) == inside == n * L
        del matrix


@pytest.mark.parametrize(
    "name, key",
    [
        ("_profile_matrix_cached", lambda i: (False, False, 1 + i)),
        ("_step_profile_cached", lambda i: (9, i, 10, False)),
        ("_gaussian_profile_cached", lambda i: (9, i, 10, True)),
    ],
)
def test_profile_caches_evict_past_their_bound(name, key):
    cached = getattr(families, name)
    bound = cached.cache_info().maxsize
    assert bound is not None
    for i in range(bound + 1):
        cached(*key(i))
    info = cached.cache_info()
    assert info.currsize == bound
    cached(*key(0))  # the least recently used entry was evicted
    assert cached.cache_info().misses == info.misses + 1


@pytest.mark.parametrize(
    "family",
    [
        AdaptedFamily.abs_haar(1),
        AdaptedFamily.make("abs-haar", 1, (True,)),
        AdaptedFamily.make("haar", 2, (True, False)),
        AdaptedFamily.make("gaussian-smooth", 2, (False, True)),
        AdaptedFamily.make("gaussian-bump", 1),
        AdaptedFamily.make("haar", 1, (False,)),
    ],
)
@pytest.mark.parametrize("L", [0, 1, 2, 5, 9])
def test_step_profile_matrix_equals_its_rows(family, L):
    # every kind, step or smooth, shares one allocation path
    for axis in range(family.d):
        want = np.zeros((1 << L, 1 << L))
        for k in range(L):
            for j in range(1 << k):
                want[(1 << k) + j] = family.axis_profile(axis, k, j, L)
        matrix = family.profile_matrix(axis, L)
        assert np.array_equal(matrix, want)
        assert matrix.dtype == np.float64
        assert matrix.flags.c_contiguous and not matrix.flags.writeable


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_step_profile_matrix_keeps_only_its_blocks_resident():
    # a fresh process, so no other test's matrices count.  Its peak is read as
    # VmHWM, not ru_maxrss: Linux carries ru_maxrss across exec, so a child
    # of a large test process would start above any peak it reaches itself.
    # n = 2^12 spans 128 MiB; the diagonal blocks touch about 16 MiB of it
    code = (
        "import re\n"
        "from dyadicpara import AdaptedFamily\n"
        "def peak_kib():\n"
        "    with open('/proc/self/status') as f:\n"
        "        return int(re.search(r'VmHWM:\\s*(\\d+) kB', f.read()).group(1))\n"
        "before = peak_kib()\n"
        "matrix = AdaptedFamily.abs_haar(1).profile_matrix(0, 12)\n"
        "print(peak_kib() - before)\n"
    )
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert int(run.stdout) < 48 * 1024


@pytest.mark.parametrize("zero", [False, True])
def test_smooth_profile_matrix_rows_equal_the_row_builder(zero):
    # rows are written on their nonzero span only: equal in value, and the
    # underflowed tails outside it read +0.0 where the builder gives -0.0
    build = families._profile_matrix_cached.__wrapped__
    for L in range(3, 12):
        matrix = build(True, zero, L)
        assert not matrix[0].any()
        for k in range(L):
            for j in range(1 << k):
                row, want = matrix[(1 << k) + j], families._gaussian_row(k, j, L, zero)
                assert np.array_equal(row, want)
                differ = row.view(np.uint64) != want.view(np.uint64)
                assert not np.signbit(row[differ]).any() and np.signbit(want[differ]).all()
                assert not want[differ].any()
        del matrix


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_smooth_profile_matrix_keeps_only_its_nonzero_spans_resident():
    # as above: n = 2^12 spans 128 MiB; the rows' nonzero spans touch about
    # 30 MiB of it
    code = (
        "import re\n"
        "from dyadicpara import AdaptedFamily\n"
        "def peak_kib():\n"
        "    with open('/proc/self/status') as f:\n"
        "        return int(re.search(r'VmHWM:\\s*(\\d+) kB', f.read()).group(1))\n"
        "before = peak_kib()\n"
        "matrix = AdaptedFamily.make('gaussian-smooth', 1).profile_matrix(0, 12)\n"
        "print(peak_kib() - before)\n"
    )
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert int(run.stdout) < 64 * 1024
