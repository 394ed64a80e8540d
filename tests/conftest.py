import sys

import pytest

from permbinom.ffield import make_field

# Every (p, e) with q <= 16, then the rest with q <= 32, then the three bench
# fields 2^7, 127 and 5^3.
FIELDS_16 = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1),
             (13, 1), (2, 4)]
FIELDS_32 = FIELDS_16 + [(17, 1), (19, 1), (23, 1), (5, 2), (3, 3), (29, 1), (31, 1), (2, 5)]
BENCH_FIELDS = [(2, 7), (127, 1), (5, 3)]
TABLE_FIELDS = FIELDS_32 + BENCH_FIELDS


def pytest_terminal_summary(terminalreporter):
    """Echo the acceptance-criterion pass/fail lines after the run; they are
    otherwise swallowed by output capture on passing tests."""
    mod = sys.modules.get("test_acceptance") or sys.modules.get("tests.test_acceptance")
    lines = getattr(mod, "CHECKPOINT_LINES", None)
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def fields():
    """Cache of contexts keyed by (p, e); construction is deterministic."""
    cache = {}

    def get(p, e):
        if (p, e) not in cache:
            cache[(p, e)] = make_field(p, e)
        return cache[(p, e)]

    return get


def sylvester_resultant(f, g):
    """Independent resultant oracle: Bareiss fraction-free elimination on the
    Sylvester matrix.  Kept free of the subresultant code path under test."""
    m, n = len(f) - 1, len(g) - 1
    if m < 0 or n < 0:
        raise ValueError("nonzero polynomials required")
    N = m + n
    if N == 0:
        return 1
    fd, gd = list(reversed(f)), list(reversed(g))
    rows = [[0] * i + fd + [0] * (N - m - 1 - i) for i in range(n)]
    rows += [[0] * i + gd + [0] * (N - n - 1 - i) for i in range(m)]
    sign, prev = 1, 1
    for k in range(N - 1):
        if rows[k][k] == 0:
            for r in range(k + 1, N):
                if rows[r][k]:
                    rows[k], rows[r] = rows[r], rows[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, N):
            for j in range(k + 1, N):
                rows[i][j] = (rows[i][j] * rows[k][k] - rows[i][k] * rows[k][j]) // prev
            rows[i][k] = 0
        prev = rows[k][k]
    return sign * rows[N - 1][N - 1]
