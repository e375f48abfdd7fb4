"""The spectral kinds' tangent-space tests, face rows and kernel-block
oracles against the loop formulas they replaced.

The reference functions below are the earlier per-kind code, kept verbatim:
each kind's ``tangent_space_test`` with its ``_reduced_block_test`` tail, and
each face's ``affine_part`` built row by row.  The shared ``_contact_test``
must give the same (verdict, note) on every branch, and the Kronecker face
rows the same bits.
"""

import math

import numpy as np
import pytest

import gaugecert.certificates as certificates
from gaugecert.certificates import sdp_trace_check
from gaugecert.cones import matrix_rank, negligible
from gaugecert.gauges import NuclearGauge, SdpTraceGauge
from gaugecert.gauges.matrix import _sym_mat, sym_basis


def _reduced_block_test(A, M0, G, H, scale):
    if np.linalg.eigvalsh(0.5 * (M0 + M0.T))[0] <= 1e-7 * scale:
        return None, "reduced block is singular; tangent cone is not a subspace"
    B = np.kron(G, H) @ sym_basis(G.shape[1])
    d = B.shape[1]
    return matrix_rank(A @ B) == d, f"rank test on the {d}-dimensional tangent space"


def _nuclear_tangent_reference(g, A, x0, y0):
    p, q = g.shape
    Z = (A.T @ y0).reshape(p, q)
    U, s, Vt = np.linalg.svd(Z)
    if s.size and s[0] > 1.0 + 1e-7:
        return None, "certificate is not dual feasible"
    lev = s >= 1.0 - 1e-7
    r = int(np.sum(lev))
    if r == 0:
        return (True, "certificate strictly inside the polar ball") \
            if matrix_rank(A) == p * q else (None, "flat-gauge case")
    U1, V1 = U[:, :r], Vt[:r].T
    X0 = x0.reshape(p, q)
    M0 = U1.T @ X0 @ V1
    resid = float(np.linalg.norm(X0 - U1 @ M0 @ V1.T))
    scale = max(1.0, float(np.linalg.norm(X0)))
    if resid > 1e-7 * scale or np.linalg.norm(M0 - M0.T) > 1e-7 * scale:
        return None, "x0 is not aligned with the certificate's blocks"
    return _reduced_block_test(A, M0, U1, V1, scale)


def _sdp_tangent_reference(g, A, x0, y0):
    nm = g.nmat
    w, V = np.linalg.eigh(g.C - _sym_mat(A.T @ y0, nm))
    scale = max(1.0, float(np.abs(w).max(initial=0.0)))
    if w[0] < -1e-7 * scale:
        return None, "certificate is not dual feasible"
    ker = np.abs(w) <= 1e-7 * scale
    d0 = int(np.sum(ker))
    if d0 == 0:
        return (True, "certificate strictly inside the polar set") \
            if matrix_rank(A @ sym_basis(nm)) == nm * (nm + 1) // 2 \
            else (None, "flat-gauge case")
    G = V[:, ker]
    X0 = _sym_mat(x0, nm)
    M0 = G.T @ X0 @ G
    resid = float(np.linalg.norm(X0 - G @ M0 @ G.T))
    xscale = max(1.0, float(np.linalg.norm(X0)))
    if resid > 1e-7 * xscale:
        return None, "x0 is not supported on the certificate's kernel block"
    return _reduced_block_test(A, M0, G, G, xscale)


def _nuclear_rows_reference(face, A):
    U1, V1, U2, V2 = face.U1, face.V1, face.U2, face.V2
    r = U1.shape[1]
    rows, rhs = [], []
    for i in range(r):
        for j in range(r):
            rows.append(A @ np.outer(U1[:, i], V1[:, j]).ravel())
            rhs.append(1.0 if i == j else 0.0)
    for i in range(r):
        for j in range(V2.shape[1]):
            rows.append(A @ np.outer(U1[:, i], V2[:, j]).ravel())
            rhs.append(0.0)
    for i in range(U2.shape[1]):
        for j in range(r):
            rows.append(A @ np.outer(U2[:, i], V1[:, j]).ravel())
            rhs.append(0.0)
    return np.array(rows).reshape(len(rows), A.shape[0]), np.array(rhs), 1e-8


def _sdp_rows_reference(face, A):
    E, U, C = face.E, face.U, face.C
    rows, rhs = [], []
    for i in range(U.shape[1]):
        for j in range(i, U.shape[1]):
            M = 0.5 * (np.outer(U[:, i], U[:, j]) + np.outer(U[:, j], U[:, i]))
            rows.append(A @ M.ravel())
            rhs.append(float(np.tensordot(M, C)))
    for i in range(U.shape[1]):
        for j in range(E.shape[1]):
            M = 0.5 * (np.outer(U[:, i], E[:, j]) + np.outer(E[:, j], U[:, i]))
            rows.append(A @ M.ravel())
            rhs.append(float(np.tensordot(M, C)))
    return (np.array(rows).reshape(len(rows), A.shape[0]), np.array(rhs),
            1e-8 * max(1.0, float(np.abs(C).max())))


def _flat(M):
    return np.asarray(M, dtype=float).ravel()


E11, E22, I2 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), np.eye(2)
UPPER = np.array([[1.0, 1.0], [0.0, 1.0]])
#: (branch, z0 = A^T y0 on the 2 x 2 matrices, x0, A): A is the identity,
#: vec(I) alone (not injective on the symmetric matrices) or the identity
#: without its last row (not injective at all), and y0 solves A^T y0 = z0
TANGENT_CASES = {
    "nuclear": [
        ("not dual feasible", 2.0 * E11, E11, "id"),
        ("strictly inside, injective", 0.5 * E11, E11, "id"),
        ("strictly inside, flat", 0.5 * E11, E11, "drop"),
        ("not aligned", E11, E22, "id"),
        ("not aligned (asymmetric block)", I2, UPPER, "id"),
        ("singular block", I2, E11, "id"),
        ("rank test passes", E11, E11, "id"),
        ("rank test fails", I2, I2, "trace"),
    ],
    "sdp_trace": [
        ("not dual feasible", 2.0 * E11, E11, "id"),
        ("strictly inside, injective", 0.0 * E11, E11, "id"),
        ("strictly inside, flat", 0.0 * E11, E11, "trace"),
        ("not supported", E11, E22, "id"),
        ("singular block", I2, E11, "id"),
        ("rank test passes", E11, E11, "id"),
        ("rank test fails", I2, I2, "trace"),
    ],
}
A_CHOICES = {"id": np.eye(4), "trace": _flat(I2)[None], "drop": np.eye(4)[:3]}


@pytest.mark.parametrize("kind", sorted(TANGENT_CASES))
def test_contact_test_matches_the_per_kind_tests_on_every_branch(kind):
    g, reference = ((NuclearGauge((2, 2)), _nuclear_tangent_reference)
                    if kind == "nuclear" else
                    (SdpTraceGauge(np.eye(2)), _sdp_tangent_reference))
    got_all = set()
    for branch, Z, X0, a in TANGENT_CASES[kind]:
        A = A_CHOICES[a]
        y0 = np.linalg.lstsq(A.T, _flat(Z), rcond=None)[0]
        assert np.allclose(A.T @ y0, _flat(Z), rtol=0.0, atol=1e-14), branch
        got = g.tangent_space_test(A, _flat(X0), y0)
        assert got == reference(g, A, _flat(X0), y0), branch
        got_all.add(got)
    # each case reaches its own branch (a label's variants share one)
    labels = {branch.split(" (")[0] for branch, *_ in TANGENT_CASES[kind]}
    assert len(got_all) == len(labels)


@pytest.mark.parametrize("shape", [(2, 3), (3, 4), (5, 4)])
@pytest.mark.parametrize("rank", [0, 1, 2])
def test_nuclear_face_rows_keep_every_bit(shape, rank):
    # tails with a side of at most 1 ((2, 3), (3, 4) at rank 2) and larger
    rng = np.random.default_rng([31, *shape, rank])
    g = NuclearGauge(shape)
    x0 = g.draw_x0(rng, rank=rank)
    A = rng.standard_normal((5, g.n))
    face = g.face(x0)
    assert face.U1.shape[1] == rank
    rows, rhs, tol = face.affine_part(A)
    want_rows, want_rhs, want_tol = _nuclear_rows_reference(face, A)
    assert np.array_equal(rows, want_rows) and np.array_equal(rhs, want_rhs)
    assert tol == want_tol


@pytest.mark.parametrize("nm, rank", [(3, 3), (3, 2), (3, 1), (4, 2)])
def test_sdp_face_rows_keep_every_bit(nm, rank):
    # kernels of side 0, 1, 2 and 2; the range U comes from the one
    # decomposition of x0 that also gives the kernel
    rng = np.random.default_rng([32, nm, rank])
    G = rng.standard_normal((nm, nm))
    g = SdpTraceGauge(G @ G.T / nm + np.eye(nm))
    x0 = g.draw_x0(rng, rank=rank)
    A = rng.standard_normal((4, g.n))
    face = g.face(x0)
    assert face.E.shape[1] == nm - rank
    w, V = np.linalg.eigh(g._mat(x0))
    assert np.array_equal(face.U, V[:, ~negligible(np.maximum(w, 0.0))])
    rows, rhs, tol = face.affine_part(A)
    want_rows, want_rhs, want_tol = _sdp_rows_reference(face, A)
    assert np.array_equal(rows, want_rows) and np.array_equal(rhs, want_rhs)
    assert tol == want_tol


def test_bottom_on_an_empty_kernel(monkeypatch):
    # a positive definite x0 has no kernel block: J' is <C, h>, the PSD
    # tangent cone is everything, and the sdp probe reads <C, h> alone
    rng = np.random.default_rng(34)
    G = rng.standard_normal((3, 3))
    C = G @ G.T / 3 + np.eye(3)
    g = SdpTraceGauge(C)
    G = rng.standard_normal((3, 3))
    x0 = _flat(G @ G.T + np.eye(3))
    H = rng.standard_normal((20, g.n))
    assert g._kernel(x0).shape[1] == 0
    lam, top, Gs = g._bottom(x0, H, vectors=True)
    assert np.all(lam == math.inf) and np.all(top == 0.0) and not Gs.any()
    assert np.array_equal(g.dir_deriv_batch(x0, H), H @ C.ravel())
    cone = g.domain_tangent_cone(x0)
    assert not cone.violation_batch(H).any()
    assert not cone.violation_subgrad_batch(H).any()

    probes = []
    original = certificates.sphere_min

    def spy(f, K, *args, **kwargs):
        probes.append((f, K))
        return original(f, K, *args, **kwargs)

    monkeypatch.setattr(certificates, "sphere_min", spy)
    Phi = rng.standard_normal((3, 9))
    sdp_trace_check(Phi, C, x0.reshape(3, 3))
    (f, K), = probes
    S = g.coordinate_basis()
    T = rng.standard_normal((20, K.shape[1])) @ K.T
    Cs = S.T @ C.ravel()
    assert np.array_equal(f.value_batch(T), T @ Cs)
    assert np.allclose(f.value_batch(T), (T @ S.T) @ C.ravel(),
                       rtol=0.0, atol=1e-12)
    assert np.array_equal(f.subgrad_batch(T), np.tile(Cs, (len(T), 1)))
