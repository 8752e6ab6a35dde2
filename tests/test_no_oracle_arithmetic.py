"""The library computes its results without the polynomial arithmetic of
ncpoly, which is the oracle the tests check it against. The check runs in
a fresh interpreter, so that no warm cache hides a call."""

from test_imports import fresh

FORBID = """
import json
from ncschur import ncpoly

def forbidden(name):
    def method(*args, **kwargs):
        raise AssertionError(f"oracle arithmetic in the library: {name}")
    return method

for cls in (ncpoly.CPoly, ncpoly.NCPoly):
    for name in ("__add__", "__sub__", "__mul__", "scale"):
        setattr(cls, name, forbidden(f"{cls.__name__}.{name}"))
"""

RUN = """
from ncschur import ncsym, sym, verify
from ncschur.combinat import partitions, set_partitions

singles = [(n, sym.SymExpr.single(b, lam))
           for b in "mpehs" for n in range(7) for lam in partitions(n)]
for _, f in singles:
    f.to_m()
products = [f * g for n1, f in singles for n2, g in singles if n1 + n2 <= 5]
shapes = verify.skew_shapes(5, 3)
for shape in shapes:
    sym.lr_coefficients(shape)
rhos = [ncsym.rho(ncsym.NCSymExpr.single("s", pi)) for n in range(5) for pi in set_partitions(n)]
print(json.dumps([len(singles), len(products), len(shapes), len(rhos)]))
"""


def test_library_results_need_no_polynomial_arithmetic():
    assert fresh(FORBID + RUN) == [150, 1850, 257, 24]
