"""The left and right regular matrices of an element, for tests that check
products and trace forms against them entry by entry."""
from fdalg.linalg import Matrix


def left_regular_coords(a, x):
    """Matrix of y -> x·y in coordinates (columns are images of the basis)."""
    F = a.field
    cols = []
    for j in range(a.dim):
        col = [F.zero()] * a.dim
        for i, xi in enumerate(x):
            if xi:
                for k, ck in enumerate(a.mul[i][j]):
                    if ck:
                        col[k] = F.add(col[k], F.mul(xi, ck))
        cols.append(col)
    rows = tuple(tuple(cols[j][k] for j in range(a.dim)) for k in range(a.dim))
    return Matrix(F, a.dim, a.dim, rows)


def right_regular_coords(a, x):
    """Matrix of y -> y·x in coordinates."""
    F = a.field
    rows = [[F.zero()] * a.dim for _ in range(a.dim)]
    for j, xj in enumerate(x):
        if xj:
            for i in range(a.dim):
                for k, ck in enumerate(a.mul[i][j]):
                    if ck:
                        rows[k][i] = F.add(rows[k][i], F.mul(xj, ck))
    return Matrix(F, a.dim, a.dim, tuple(map(tuple, rows)))
