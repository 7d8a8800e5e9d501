"""The trace-side kernels against the plain transcriptions they replaced.

``reference_*`` below are the straight forms the package's loops replaced:
the CSV writer that joins one row at a time, the generator-join point
format, the tail sup as ``max`` over ``_not_nan`` values, the falsifier
intake with its explicit region loop, the CD falsifier that calls
``distance()`` for every cross value, and the candidate generator with a
``max`` per term.  The package must give the same bytes, values and bits
(compared through ``repr``, so ``-0.0`` and NaN count), and where a
reference raises, the same exception type with the same message.
"""

from __future__ import annotations

import io
import math
from typing import Callable

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from proxiter import Atom, CPair, SetPair, interval, real_line, vector_space
from proxiter.errors import InvalidInputError, NumericFailureError, ProxiterError
from proxiter.instances import PAIRS, _geometric, pair_cd_generator, pair_uc_generator
from proxiter.iteration import (
    CONFIRM_WINDOW,
    CSV_CHUNK_ROWS,
    IterationTrace,
    PairedTrace,
    _check_tol,
    _settled,
    write_trace_csv,
)
from proxiter.spaces import Region, distance, format_point
from proxiter.validators import (
    CDCounterexample,
    GeometricTerms,
    _aitken_limit,
    _intake,
    cd_falsify,
    tail_sup,
    uc_falsify,
)


def _not_nan(fn: Callable[[int, int], float], n: int, m: int) -> float:
    value = fn(n, m)
    if math.isnan(value):
        raise NumericFailureError(f"tail value at (n, m) = ({n}, {m}) is NaN")
    return value


def reference_format_point(p, digits=17):
    return ";".join(f"{c:.{digits}g}" for c in p)


def reference_format_celement(c):
    if isinstance(c, Atom):
        return f"@{c.label}"
    if isinstance(c, CPair):
        return f"{reference_format_celement(c.left)}&{reference_format_celement(c.right)}"
    return reference_format_point(c)


def reference_write_trace_csv(paired, fh):
    fh.write("n,x_n,u_n,y_n,v_n,rho_xy,f_a_u,f_b_v\n")
    for n in range(len(paired.a.points)):
        row = [
            str(n),
            reference_format_point(paired.a.points[n]),
            reference_format_celement(paired.a.celements[n]),
            reference_format_point(paired.b.points[n]),
            reference_format_celement(paired.b.celements[n]),
            f"{paired.rho_xy[n]:.17g}",
            f"{paired.a.f_values[n]:.17g}",
            f"{paired.b.f_values[n]:.17g}",
        ]
        fh.write(",".join(row) + "\n")


def reference_tail_sup(fn, k, horizon):
    if k > horizon:
        raise InvalidInputError("empty index window: k exceeds the horizon")
    indices = range(k, horizon + 1)
    return max(_not_nan(fn, n, m) for n in indices for m in indices)


def reference_intake(candidate, regions):
    seqs = tuple(tuple(tuple(p) for p in seq) for seq in candidate)
    if min(len(seq) for seq in seqs) < 2:
        raise InvalidInputError("candidate sequences must have at least 2 terms")
    for seq, region in zip(seqs, regions):
        for p in seq:
            if not region.contains(p):
                raise InvalidInputError(f"generator produced {p} outside region {region.name}")
    return seqs


def reference_cd_falsify(pair, gen, budget, tol):
    if budget < 1:
        raise InvalidInputError("budget must be >= 1")
    _check_tol(tol)
    dist = pair.dist_ab
    for i in range(budget):
        xs, ys = reference_intake(gen(i), (pair.a, pair.b))
        horizon = min(len(xs), len(ys)) - 1
        k_tail = max(0, horizon - CONFIRM_WINDOW)
        sup = reference_tail_sup(
            lambda n, m: distance(pair.space, xs[n], ys[m]), k_tail, horizon
        )
        if abs(sup - dist) > tol:
            continue
        if not _settled(pair.space, xs, tol):
            return CDCounterexample(i, xs, ys, "no-cauchy-window", None)
        limit = _aitken_limit(xs) if len(xs) >= 3 else xs[-1]
        if not pair.a.contains(limit):
            return CDCounterexample(i, xs, ys, "limit-escapes-region", limit)
    return None


def reference_geometric(target, c, ratio, sign, floor=0.0):
    return [(target + sign * max(c * ratio ** n, floor),) for n in range(80)]


def outcome(fn, *args, **kwargs):
    """("ok", repr of the result) or (exception type, message)."""
    try:
        return ("ok", repr(fn(*args, **kwargs)))
    except ProxiterError as exc:
        return (type(exc), str(exc))


special = st.sampled_from([-0.0, 0.0, math.nan, math.inf, -math.inf])
coordinate = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    special,
    st.integers(-10**6, 10**6),
)


@st.composite
def points(draw, max_dim=4):
    coords = draw(st.lists(coordinate, min_size=1, max_size=max_dim))
    return coords if draw(st.booleans()) else tuple(coords)


def celements():
    leaf = st.one_of(
        st.builds(Atom, st.sampled_from(["one", "unit", "x y"])),
        st.lists(coordinate, min_size=1, max_size=3).map(tuple),
    )
    return st.recursive(leaf, lambda inner: st.builds(CPair, inner, inner), max_leaves=4)


row = st.tuples(points(), celements(), points(), celements(), coordinate, coordinate, coordinate)


def paired_trace(rows):
    xs, us, ys, vs, rho, fa, fb = (tuple(column) for column in zip(*rows))
    space = real_line()
    return PairedTrace(IterationTrace(space, xs, us, fa), IterationTrace(space, ys, vs, fb), rho)


def assert_same_csv(paired):
    got, want = io.StringIO(), io.StringIO()
    write_trace_csv(paired, got)
    reference_write_trace_csv(paired, want)
    assert got.getvalue() == want.getvalue()


@settings(max_examples=40, deadline=None)
@given(rows=st.lists(row, min_size=1, max_size=8))
def test_write_trace_csv_matches_the_row_by_row_writer(rows):
    assert_same_csv(paired_trace(rows))


SPECIALS = (-0.0, 0.0, math.nan, math.inf, -math.inf, 3, 1e-300, 2.0 ** 0.5)
ELEMENTS = (Atom("one"), CPair(Atom("a"), (1.5, -0.0)), (math.nan,), CPair((2,), CPair(Atom("b"), (0.1,))))


@pytest.mark.parametrize("length", [1, CSV_CHUNK_ROWS - 1, CSV_CHUNK_ROWS, CSV_CHUNK_ROWS + 1])
def test_write_trace_csv_matches_the_row_by_row_writer_at_chunk_edges(length):
    # every row differs, so a row written twice, dropped or numbered wrongly shows
    rows = []
    for n in range(length):
        s = SPECIALS[n % len(SPECIALS)]
        dim = 1 + n % 4
        x = [n / 7.0, s, -n, 0.5][:dim]
        rows.append((
            x if n % 2 else tuple(x),
            ELEMENTS[n % len(ELEMENTS)],
            (s, n * 1e-3)[: 1 + n % 2],
            ELEMENTS[(n + 1) % len(ELEMENTS)],
            n * 0.25,
            s,
            -n / 3.0,
        ))
    assert_same_csv(paired_trace(rows))


class WriteLog:
    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)


@pytest.mark.parametrize("length", [1, CSV_CHUNK_ROWS, CSV_CHUNK_ROWS + 1, 3 * CSV_CHUNK_ROWS])
def test_write_trace_csv_writes_bounded_chunks(length):
    space = real_line()
    side = IterationTrace(space, ((1.5,),) * length, (Atom("one"),) * length, (0.0,) * length)
    log = WriteLog()
    write_trace_csv(PairedTrace(side, side, (2.0,) * length), log)
    header, *chunks = log.writes
    assert header == "n,x_n,u_n,y_n,v_n,rho_xy,f_a_u,f_b_v\n"
    assert len(chunks) == -(-length // CSV_CHUNK_ROWS)
    assert all(0 < chunk.count("\n") <= CSV_CHUNK_ROWS for chunk in chunks)
    assert sum(chunk.count("\n") for chunk in chunks) == length


@settings(max_examples=100, deadline=None)
@given(p=points(max_dim=6), digits=st.sampled_from([6, 17]))
def test_format_point_matches_the_generator_join(p, digits):
    assert format_point(p, digits) == reference_format_point(p, digits)


def test_format_point_of_an_empty_point():
    assert format_point(()) == reference_format_point(()) == ""


value = st.one_of(st.floats(-3.0, 3.0), special)


@settings(max_examples=150, deadline=None)
@given(
    k=st.integers(0, 4),
    width=st.integers(-1, 5),
    table=st.lists(value, min_size=1, max_size=12),
)
def test_tail_sup_matches_max_over_not_nan(k, width, table):
    horizon = k + width
    calls, ref_calls = [], []

    def logged(log):
        def fn(n, m):
            log.append((n, m))
            return table[(5 * n + m) % len(table)]

        return fn

    got = outcome(tail_sup, logged(calls), k, horizon)
    assert got == outcome(reference_tail_sup, logged(ref_calls), k, horizon)
    assert calls == ref_calls


def test_tail_sup_names_the_first_nan_in_n_major_order():
    nan_at = {(2, 1), (1, 2)}
    fn = lambda n, m: math.nan if (n, m) in nan_at else 0.0  # noqa: E731
    with pytest.raises(NumericFailureError, match=r"^tail value at \(n, m\) = \(1, 2\) is NaN$"):
        tail_sup(fn, 0, 3)


def test_tail_sup_of_an_all_minus_infinity_window():
    assert tail_sup(lambda n, m: -math.inf, 2, 4) == -math.inf


@pytest.mark.parametrize("first, second", [(0.0, -0.0), (-0.0, 0.0)])
def test_tail_sup_keeps_the_first_of_tied_zeros(first, second):
    got = tail_sup(lambda n, m: first if m == 0 else second, 0, 1)
    assert repr(got) == repr(first)


@settings(max_examples=100, deadline=None)
@given(
    target=st.one_of(st.floats(-5.0, 5.0), special),
    c=st.one_of(st.floats(-100.0, 100.0), special),
    ratio=st.one_of(st.floats(-1.5, 1.5), special),
    sign=st.sampled_from([1.0, -1.0]),
    floor=st.one_of(st.none(), st.floats(-1.0, 1.0), st.just(1e-13), special),
)
def test_geometric_matches_the_max_comprehension(target, c, ratio, sign, floor):
    args = (target, c, ratio, sign) if floor is None else (target, c, ratio, sign, floor)
    assert repr(list(_geometric(*args))) == repr(reference_geometric(*args))


REGIONS = (interval(0.0, 1.0), interval(-1.0, 0.5, closed_hi=False), interval(-2.0, 2.0))
term = st.one_of(st.floats(-2.5, 2.5), st.sampled_from([-0.0, 0.5, 1.0, math.nan]))


@settings(max_examples=100, deadline=None)
@given(
    candidate=st.lists(
        st.lists(
            st.builds(lambda v, as_list: [v] if as_list else (v,), term, st.booleans()),
            min_size=1,
            max_size=6,
        ),
        min_size=1,
        max_size=3,
    )
)
def test_intake_matches_the_region_loop(candidate):
    # the error names the first point outside its region, sequence by sequence
    assert outcome(_intake, candidate, REGIONS) == outcome(reference_intake, candidate, REGIONS)


def test_intake_names_the_first_point_outside():
    candidate = ([(0.5,), (0.25,)], [(0.0,), (0.75,), (0.9,)])
    with pytest.raises(InvalidInputError, match=r"^generator produced \(0\.75,\) outside region"):
        _intake(candidate, REGIONS[:2])


# regions a geometric candidate can be admitted on from its hull ends, then
# an unregistered predicate and an interval's predicate behind a wrapper
_UNIT = interval(0.0, 1.0)
HULL_REGIONS = (
    interval(0.0, math.inf, sample_hi=100.0),
    interval(-math.inf, -1.0, sample_lo=-100.0),
    interval(0.0, 1.0, closed_lo=False, closed_hi=False),
    interval(2.0, 3.0, closed_lo=False, closed_hi=False),
    interval(-1.0, 0.5, closed_hi=False),
    interval(0.0, 2.0, closed_lo=False),
    interval(0.0, math.inf, closed_lo=False, sample_hi=100.0),
    interval(-math.inf, math.inf),
    Region("unregistered", lambda p: 0.0 <= p[0] <= 1.0, lambda rng, n: []),
    Region("wrapped", lambda p: _UNIT.contains(p), lambda rng, n: []),
)


@st.composite
def geometric_sequences(draw):
    """((target, c, ratio, sign, floor), region): half the time the generators'
    own forms, on their regions and at their edges; else anything, anywhere."""
    edge = st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf])
    if draw(st.booleans()):
        target, sign, floor, region = draw(st.sampled_from([
            (0.0, 1.0, 0.0, HULL_REGIONS[0]),
            (-1.0, -1.0, 0.0, HULL_REGIONS[1]),
            (1.0, -1.0, 1e-13, HULL_REGIONS[2]),
            (2.0, 1.0, 1e-13, HULL_REGIONS[3]),
        ]))
        c = draw(st.one_of(st.floats(0.05, 40.0), st.sampled_from([0.0, -0.0, 0.5, 1.0])))
        ratio = draw(st.one_of(st.floats(0.3, 0.7), st.sampled_from([0.0, -0.0, 1.0])))
        region = draw(st.one_of(st.just(region), st.sampled_from(HULL_REGIONS)))
        return (target, c, ratio, sign, floor), region
    target = draw(st.one_of(st.sampled_from([0.0, -1.0, 1.0, 2.0]), st.floats(-4.0, 4.0), edge))
    c = draw(st.one_of(st.floats(0.0, 40.0), st.sampled_from([5e-324, -1.0, 1e308]), edge))
    ratio = draw(st.one_of(
        st.floats(0.0, 1.0),
        st.sampled_from([0.3, 0.7, 1.0, 1.0000000000000002, -0.5, 5e-324]),
        edge,
    ))
    sign = draw(st.sampled_from([1.0, -1.0, 0.0, math.nan, math.inf]))
    floor = draw(st.one_of(st.sampled_from([0.0, 1e-13, -1e-13, -0.5, 2.5]), edge))
    return (target, c, ratio, sign, floor), draw(st.sampled_from(HULL_REGIONS))


# c infinite and ratio 0: term 0 and the lower end are members of [0, inf),
# every later term is inf * 0, NaN
@example(
    drawn=[((0.0, math.inf, 0.0, 1.0, 0.0), HULL_REGIONS[0]),
           ((-1.0, 4.0, 1.0, -1.0, 0.0), HULL_REGIONS[1])],
    index=-1,
    cut=(None, None, -1),
)
@settings(max_examples=100, deadline=None)
@given(
    drawn=st.lists(geometric_sequences(), min_size=2, max_size=2),
    index=st.integers(-80, 79),
    cut=st.tuples(
        st.one_of(st.none(), st.integers(-90, 90)),
        st.one_of(st.none(), st.integers(-90, 90)),
        st.one_of(st.none(), st.integers(-3, 3).filter(bool)),
    ),
)
def test_geometric_admission_matches_the_region_loop(drawn, index, cut):
    # admitted from its hull ends or checked term by term, a lazy candidate
    # is accepted or refused exactly as its materialised list
    lazy = [_geometric(*args) for args, _ in drawn]
    lists = [reference_geometric(*args) for args, _ in drawn]
    regions = [region for _, region in drawn]
    for seq, ref in zip(lazy, lists):
        assert len(seq) == len(ref) == 80
        assert repr(list(seq)) == repr(ref)
        assert repr(seq[index]) == repr(ref[index])
        assert repr(list(seq[slice(*cut)])) == repr(ref[slice(*cut)])
    got = outcome(lambda: tuple(map(tuple, _intake(lazy, regions))))
    assert got == outcome(reference_intake, lists, regions)


@pytest.mark.parametrize("index", [80, -81])
def test_geometric_terms_end_at_80(index):
    with pytest.raises(IndexError):
        _geometric(0.0, 1.0, 0.5, 1.0)[index]


@pytest.mark.parametrize(
    "falsify, make",
    [(cd_falsify, pair_cd_generator), (uc_falsify, pair_uc_generator)],
    ids=["cd", "uc"],
)
def test_scans_compute_few_terms_per_candidate(monkeypatch, falsify, make):
    # admitted from two hull ends, a candidate of 80 terms computes only
    # those the falsifier reads: about CONFIRM_WINDOW + 1 per sequence
    computed = []
    term = GeometricTerms._term

    def counted(self, n):
        computed.append(n)
        return term(self, n)

    monkeypatch.setattr(GeometricTerms, "_term", counted)
    gen = make("e1-pair", 1)
    before = []

    def counting_gen(i):
        before.append(len(computed))
        return gen(i)

    assert falsify(PAIRS["e1-pair"].build(), counting_gen, 2000, 1e-6) is None
    before.append(len(computed))
    assert len(before) == 2001
    assert max(b - a for a, b in zip(before, before[1:])) <= 30


EVERYWHERE = Region("everywhere", lambda p: True, lambda rng, n: [])
cd_term = st.one_of(st.floats(-1.0, 1.0), st.sampled_from([0.0, 0.25, math.nan]))


@st.composite
def cd_candidates(draw):
    """Short candidate pairs, some with a NaN term or a point of the wrong dimension."""
    dim = draw(st.sampled_from([1, 2]))

    def seq(length):
        out = [tuple(draw(cd_term) for _ in range(dim)) for _ in range(length)]
        if draw(st.integers(0, 3)) == 0:
            out[draw(st.integers(0, length - 1))] = (0.5,) * (3 - dim)
        return out

    length = draw(st.integers(2, 14))
    return dim, [(seq(length), seq(draw(st.integers(2, 14)))) for _ in range(3)]


@settings(max_examples=60, deadline=None)
@given(drawn=cd_candidates(), dist=st.sampled_from([0.0, 0.5]), tol=st.sampled_from([1e-6, 0.5]))
def test_cd_falsify_matches_distance_everywhere(drawn, dist, tol):
    dim, pool = drawn
    space = real_line() if dim == 1 else vector_space(2)
    pair = SetPair(space, EVERYWHERE, EVERYWHERE, dist_ab=dist)
    gen = lambda i: pool[i]  # noqa: E731
    got = outcome(cd_falsify, pair, gen, len(pool), tol)
    assert got == outcome(reference_cd_falsify, pair, gen, len(pool), tol)


# ---------------------------------------------------------------------------
# the one-template CSV rows: uniform chunks, fallback chunks, element runs


def side_rows(length, dx, dy, element=lambda n: Atom("one")):
    """length rows with dx- and dy-coordinate points (a callable gives a length per row)."""
    def dim(d, n):
        return d(n) if callable(d) else d

    return [
        (
            tuple(n / 7.0 - j for j in range(dim(dx, n))),
            element(n),
            tuple(SPECIALS[(n + j) % len(SPECIALS)] for j in range(dim(dy, n))),
            element(n + 1),
            n * 0.25,
            -n / 3.0,
            SPECIALS[n % len(SPECIALS)],
        )
        for n in range(length)
    ]


@pytest.mark.parametrize("dx", [1, 2, 3, 4])
@pytest.mark.parametrize("dy", [1, 4])
def test_write_trace_csv_of_uniform_dimensions(dx, dy):
    assert_same_csv(paired_trace(side_rows(CSV_CHUNK_ROWS + 3, dx, dy)))


@pytest.mark.parametrize("dx, dy", [(0, 0), (0, 2), (3, 0)])
def test_write_trace_csv_of_zero_length_points(dx, dy):
    assert_same_csv(paired_trace(side_rows(5, dx, dy)))


@pytest.mark.parametrize("mixed_first", [False, True])
def test_write_trace_csv_of_a_mixed_chunk_next_to_a_uniform_one(mixed_first):
    # one chunk of two-coordinate points, the next with lengths 0 to 3; the
    # boundary rows differ in length, so a chunk split in the wrong place shows
    def dim(n):
        mixed = (n >= CSV_CHUNK_ROWS) != mixed_first
        return n % 4 if mixed else 2

    assert_same_csv(paired_trace(side_rows(2 * CSV_CHUNK_ROWS, dim, dim)))


@pytest.mark.parametrize(
    "value, tail",
    [
        (math.nan, ",nan,nan,nan"),
        (math.inf, ",inf,inf,-inf"),
        (-math.inf, ",-inf,-inf,inf"),
        (-0.0, ",-0,-0,0"),
        (0.0, ",0,0,-0"),
    ],
)
def test_write_trace_csv_of_special_rho_and_f_values(value, tail):
    rows = [(x, u, y, v, value, value, -value) for x, u, y, v, _, _, _ in side_rows(7, 1, 2)]
    assert_same_csv(paired_trace(rows))
    got = io.StringIO()
    write_trace_csv(paired_trace(rows), got)
    assert all(line.endswith(tail) for line in got.getvalue().splitlines()[1:])


def count_celement_calls(monkeypatch):
    calls = []

    def counted(c):
        calls.append(c)
        return reference_format_celement(c)

    monkeypatch.setattr("proxiter.iteration.format_celement", counted)
    return calls


def test_write_trace_csv_formats_a_repeated_element_once_per_chunk(monkeypatch):
    calls = count_celement_calls(monkeypatch)
    atom = Atom("unit")
    length = 2 * CSV_CHUNK_ROWS + 1
    rows = side_rows(length, 1, 1, element=lambda n: atom)
    assert_same_csv(paired_trace(rows))
    # one call per side per chunk, and the reference writer's calls go elsewhere
    assert calls == [atom] * 6


def test_write_trace_csv_formats_equal_but_distinct_elements_one_by_one(monkeypatch):
    calls = count_celement_calls(monkeypatch)
    length = CSV_CHUNK_ROWS + 2
    distinct = side_rows(length, 1, 1, element=lambda n: Atom("unit"))
    same = Atom("unit")
    shared = side_rows(length, 1, 1, element=lambda n: same)
    got, want = io.StringIO(), io.StringIO()
    write_trace_csv(paired_trace(distinct), got)
    assert len(calls) == 2 * length
    write_trace_csv(paired_trace(shared), want)
    assert got.getvalue() == want.getvalue()


def test_write_trace_csv_keeps_zero_signs_apart_in_element_runs():
    # (0.0,) == (-0.0,), but they print differently; runs go by identity
    zero, negative_zero = (0.0,), (-0.0,)
    rows = side_rows(6, 1, 1, element=lambda n: (zero, negative_zero)[n // 2 % 2])
    assert_same_csv(paired_trace(rows))


@pytest.mark.parametrize(
    "trim, message",
    [
        ({"b_points": 2, "b_celements": 2, "b_f": 2},
         "x_n 3, u_n 3, y_n 2, v_n 2, rho_xy 3, f_a_u 3, f_b_v 2"),
        ({"rho": 1}, "x_n 3, u_n 3, y_n 3, v_n 3, rho_xy 1, f_a_u 3, f_b_v 3"),
        ({"a_f": 4}, "x_n 3, u_n 3, y_n 3, v_n 3, rho_xy 3, f_a_u 4, f_b_v 3"),
    ],
    ids=["short-side-b", "short-rho", "long-f-a"],
)
def test_write_trace_csv_refuses_columns_of_different_lengths(trim, message):
    space = real_line()
    points, elements, values = ((1.0,), (2.0,), (3.0,)), (Atom("one"),) * 3, (0.0, 0.5, 1.0)

    def column(key, full):
        n = trim.get(key, len(full))
        return (full * 2)[:n]

    a = IterationTrace(space, column("a_points", points), column("a_celements", elements),
                       column("a_f", values))
    b = IterationTrace(space, column("b_points", points), column("b_celements", elements),
                       column("b_f", values))
    log = WriteLog()
    with pytest.raises(InvalidInputError, match=f"^trace columns differ in length: {message}$"):
        write_trace_csv(PairedTrace(a, b, column("rho", values)), log)
    assert log.writes == []
