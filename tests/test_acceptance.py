"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Every tolerance is pinned here; nothing is deferred to later calibration.
"""

import dataclasses
import math
import random

import pytest

import proxiter as px
from conftest import shared_start_limits_agree

E1_Q0 = px.Quadruple((3.0,), (-2.0,), (3.0,), (-2.0,))

#: inner endpoints of the shipped affine triple, fixed by the closed-form
#: oracle: the cubed map contracts each spoke parameter by 1/8 toward zero
_R = 1.0 / math.sqrt(3.0)
AFFINE_Z = tuple(
    (_R * math.cos(math.pi / 2 + j * 2 * math.pi / 3),
     _R * math.sin(math.pi / 2 + j * 2 * math.pi / 3))
    for j in range(3)
)
AFFINE_K = 0.5  # certified against the summed inequality by the grid oracle below


def _ok(n: int, text: str) -> None:
    print(f"criterion {n}: PASS  {text}")


def test_criterion_1_example1_certification():
    system = px.example1_system()
    quads = system.p.draw(random.Random(1), 10000)
    assert len(quads) == 10000
    assert all(0.0 <= q.x[0] <= 100.0 and -100.0 <= q.y[0] <= -1.0 for q in quads)

    report = px.verify_contraction(system, 10000, seed=1)
    assert report.certified
    assert report.min_residual >= -1e-10

    lowered = dataclasses.replace(system, lam=0.5)
    refutation = px.verify_contraction(lowered, 10000, seed=1)
    assert refutation.verdict == "refuted"
    assert refutation.witness is not None
    assert lowered.in_p(refutation.witness)
    _ok(1, f"certified at 5/8 (min residual {report.min_residual:.3e}); "
           f"refuted at 0.5 with witness x={refutation.witness.x[0]:.6g}")


def test_criterion_2_example1_convergence():
    paired, report = px.run_paired(px.example1_system(), E1_Q0, 500, 1e-9)
    assert paired.a.points[:5] == ((3.0,), (6.0,), (0.5,), (1.0,), (0.0,))
    assert paired.a.points[4] == (0.0,)  # absorbed exactly by step 4
    assert report.limit == (0.0,)
    assert report.proximity_residual <= 1e-6
    assert report.fa_residual <= 1e-6
    assert report.fb_residual <= 1e-6
    _ok(2, f"limit 0 exact at step 4; proximity residual "
           f"{report.proximity_residual:.3e}, penalty tails "
           f"{report.fa_residual:.1e}/{report.fb_residual:.3e}")


def test_criterion_3_geometric_envelope_bound():
    system = px.example1_system()
    paired, _ = px.run_paired(system, E1_Q0, 500, 1e-9)
    lam, s = 5.0 / 8.0, 1.0
    space = system.pair.space

    def u(m, n):
        return (
            px.distance(space, paired.a.points[m], paired.b.points[n])
            + paired.a.f_values[m]
            + paired.b.f_values[n]
        )

    horizon = paired.steps
    m_const = max(
        max(u(k, 1) for k in range(1, horizon + 1)),
        max(u(1, k) for k in range(1, horizon + 1)),
    )
    violations = [
        n for n in range(1, horizon + 1)
        if u(n, n) > lam ** (n - 1) * m_const + (1 - lam ** (n - 1)) * s + 1e-10
    ]
    assert violations == []

    cert = px.check_l2_bound(paired, system)  # full index grid, same envelope
    assert cert.ok and cert.m == m_const
    _ok(3, f"diagonal envelope holds for all n (M = {m_const}); "
           f"full grid check clean over {paired.steps} steps")


def test_criterion_4_uniqueness():
    system = px.example1_system()
    q1 = px.Quadruple((3.0,), (-2.0,), (3.0,), (-2.0,))
    q2 = px.Quadruple((97.3,), (-2.0,), (97.3,), (-2.0,))
    assert shared_start_limits_agree(system, q1, q2, 500, 1e-9) is True

    witness = ((-1.0,), (-1.0,))
    candidates = []
    value = 0.0
    while value <= 100.0 + 1e-12:
        beta = (value,)
        try:
            seq = px.make_infimum_sequence(
                system, beta, witness, lambda n, b=beta: b, 10, f_tol=1e-9
            )
            candidates.append((beta, seq))
        except px.ProxiterError:
            pass
        value += 0.5
    violations = px.uniqueness_scan(system, (0.0,), candidates, 1e-6)
    assert violations == []
    _ok(4, f"starts 3 and 97.3 agree within 1e-8; scan over "
           f"{len(candidates)} vanishing-penalty grid points found no rival")


def test_criterion_5_cyclic_reduction():
    ct = px.affine_cyclic_example()
    result, _ = px.cyclic3_solve(ct, max_steps=400, tol=1e-9)
    assert result is not None
    for z, v in zip(result.z, AFFINE_Z):
        assert ct.space.metric(z, v) <= 1e-8
    assert max(result.gap_residuals) <= 1e-8
    assert max(result.cycle_residuals) <= 1e-8

    singleton, _ = px.cyclic3_solve(px.singleton_cyclic_example(), max_steps=100, tol=1e-9)
    assert singleton.gap_residuals == (0.0, 0.0, 0.0)
    assert singleton.cycle_residuals == (0.0, 0.0, 0.0)

    # grid oracle over 1e6 parameter triples certifies the shipped constant;
    # numpy is a test dependency only, so without it this criterion skips here
    np = pytest.importorskip("numpy", exc_type=ImportError)
    inner = np.array(AFFINE_Z)
    unit = inner / np.linalg.norm(inner, axis=1, keepdims=True)
    t = np.linspace(0.0, 1.0, 100)
    t1, t2, t3 = np.meshgrid(t, t, t, indexing="ij")

    def perimeter(a, b, c):
        p1 = inner[0] + a[..., None] * unit[0]
        p2 = inner[1] + b[..., None] * unit[1]
        p3 = inner[2] + c[..., None] * unit[2]
        norm = lambda v: np.sqrt((v ** 2).sum(-1))
        return norm(p1 - p2) + norm(p2 - p3) + norm(p3 - p1)

    base = perimeter(t1, t2, t3)
    image = perimeter(AFFINE_K * t3, AFFINE_K * t1, AFFINE_K * t2)
    residual = AFFINE_K * base + (1 - AFFINE_K) * ct.d_total - image
    assert residual.size == 10 ** 6
    assert float(residual.min()) >= -1e-10
    _ok(5, f"grid oracle min residual {float(residual.min()):.2e} at k=0.5; "
           f"affine gaps <= {max(result.gap_residuals):.1e}; singleton exact")


def test_criterion_6_product_composition():
    prod = px.example1_product_system()
    assert prod.lam == 5.0 / 8.0
    report = px.verify_contraction(prod, 10000, seed=7)
    assert report.certified

    q0 = px.Quadruple(
        (3.0, 5.0),
        (-2.0, -3.0),
        px.CPair((3.0,), (5.0,)),
        px.CPair((-2.0,), (-3.0,)),
    )
    _, run = px.run_paired(prod, q0, 500, 1e-9)
    assert run.limit is not None
    assert px.distance(prod.pair.space, run.limit, (0.0, 0.0)) <= 1e-8
    _ok(6, f"product certified at 5/8 (min residual {report.min_residual:.3e}); "
           f"limit {run.limit} within 1e-8 of the origin")


def test_criterion_7_property_falsification():
    half_lines = px.example1_pair()
    none_found = px.uc_falsify(
        half_lines, px.pair_uc_generator("e1-pair", 0), 1000, 1e-6
    )
    assert none_found is None

    escaping = px.cd_falsify(
        px.open_interval_pair(),
        px.pair_cd_generator("open-interval-pair", 0),
        1000,
        1e-6,
    )
    assert escaping is not None
    assert escaping.reason == "limit-escapes-region"
    assert escaping.limit_estimate == (1.0,)

    antipodal = px.uc_falsify(
        px.circle_origin_pair(),
        px.pair_uc_generator("circle-origin-pair", 0),
        1000,
        1e-6,
    )
    assert antipodal is not None
    assert antipodal.tail_separation == pytest.approx(2.0, abs=1e-12)
    _ok(7, "half-line collapse clean over 1000 candidates; open-interval escape "
           "and antipodal circle counterexamples both found")


def test_criterion_8_validator_fixtures():
    rng = random.Random(20240811)
    fixtures = 1000
    for _ in range(fixtures):
        fx, fy = rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0)
        cx, cy = rng.uniform(0.1, 2.0), rng.uniform(0.1, 2.0)
        rx, ry = rng.uniform(0.3, 0.8), rng.uniform(0.3, 0.8)
        n = rng.randint(30, 45)
        xs = [fx + cx * rx ** i for i in range(n)]
        ys = [fy + cy * ry ** i for i in range(n)]
        assert px.split_limit_validate(xs, ys, fx, fy, [1.0, 0.1, 0.01])
        # the tail sup must sit on the floor up to the exact geometric envelope
        k = n - 3
        envelope = cx * rx ** k + cy * ry ** k
        tail = px.tail_sup(lambda i, j: xs[i] + ys[j], k, n - 1)
        assert abs(tail - (fx + fy)) <= envelope + 1e-12
        assert envelope <= 0.01  # the fixtures decay far enough to be meaningful
    _ok(8, f"{fixtures} randomized fixtures: split-limit conclusion and "
           f"tail-sup floor convergence both hold")
