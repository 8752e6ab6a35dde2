"""Exact computer algebra for symmetric functions in noncommuting
variables: the m/p/e/h bases over set partitions, the Schur-type bases and
their product and refinement identities, Rosas-Sagan functions, the
lattice-path swap, and the compositions-indexed algebra with its embedding
and forgetful maps. All arithmetic is exact over the rationals.

The public names below load their defining module on first access (PEP
562), so ``import ncschur`` alone compiles no submodule. A CLI command
loads, and where no bytecode is cached compiles, ``cli`` and ``combinat``
(set partitions, permutations, the index parsers) and past those only the
modules it runs:

* ``convert``, ``expand``, ``multiply``, ``omega`` and ``act``: ``ncsym``
  and ``expr_format``; ``schur``, ``shapes`` and ``sym`` join them where a
  Schur-type basis is converted or expanded (``convert --to s``,
  ``multiply --basis s``, ``expand --basis s``);
* ``rho``: ``ncsym``, ``expr_format``, ``sym`` and ``shapes``;
* ``kostka``: ``shapes`` alone; ``lr`` adds ``sym`` and ``expr_format``;
* ``schur``, ``rs`` and ``specht-rank``: ``schur`` with ``ncsym``, ``sym``,
  ``shapes`` and ``expr_format``; ``lgv-check``: ``lgv`` and ``shapes``;
* ``expand --vars``: ``words``, the word layer, and ``ncpoly``, the
  polynomial oracle, on top of the ``expand`` modules;
* ``verify``: ``verify``, which loads every module above but ``ncpoly``.
"""

import importlib

# public name -> the submodule that defines it
_SOURCES = {
    name: module
    for module, names in {
        "combinat": "set_partitions slash",
        "ncpoly": "CPoly NCPoly",
        "ncsym": "NCSymExpr convert coproduct delta_action from_m omega product rho to_m",
        "nsym": "NSymExpr chi iota",
        "schur": "h_to_schur rosas_sagan rs_lr_expand schur_basis_convert source_skew_schur "
                 "skew_schur_nc specht_rank specht_vector standard_schur tabloid_schur "
                 "transposed_schur",
        "shapes": "SkewShape SemistandardTableau YoungTableau concat delta_pi kostka "
                  "near_concat partitions ribbon_shape skew",
        "sym": "SymExpr jacobi_trudi littlewood_richardson skew_schur",
        "words": "naive_expand oracle_expand",
    }.items()
    for name in names.split()
}

__all__ = sorted(_SOURCES)


def __getattr__(name: str):
    if name not in _SOURCES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_SOURCES[name]}", __name__), name)
