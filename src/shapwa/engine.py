"""Polynomial-time local/global SHAP for weighted automata under HMMs.

One pipeline answers all four queries.  With inputs x drawn from an outer
distribution and the replaced features drawn from an inner one,

  phi_i = Pi0(Pi2(outer, A_{i,n} (x) Pi2(inner, Pi3(f, T_i) - Pi3(f, T))))

and the four variants pick (inner, outer):

  glo_i:  (D, D)
  glo_b:  (point(w_ref), D)
  loc_i:  (D, point(w))
  loc_b:  (point(w_ref), point(w))

where point(w) is the point distribution on w: local SHAP at w is global
SHAP with inputs drawn from point(w).  The outer Pi0 . Pi2 and the product
with A_{i,n} are one factored contraction, so no product automaton is
materialized.  The paper's local construction from A_{w,i}, T_w and
T_{w,i} stays in `builders` as the cross-check.
"""

from .builders import build_A_in, build_point_hmm, build_T, build_T_i
from .wa import contract, project, sub


def _check_model(f, dist=None):
    if f.arity != 1:
        raise ValueError("the model must be a 1-alphabet automaton")
    sig = f.alphabets[0]
    if dist is not None and dist.alphabet != sig:
        raise ValueError("model and distribution alphabets differ")
    return sig


def _check_word(w, sig, name="input"):
    allowed = set(sig)
    for s in w:
        if s not in allowed:
            raise ValueError(f"{name} symbol {s!r} not in the model alphabet")


def _shap(f, i, n, inner, outer):
    """phi_i at length n: inputs ~ outer, replaced features ~ inner."""
    if not (1 <= i <= n):
        raise IndexError(f"feature {i} out of range for n={n}")
    sig = f.alphabets[0]
    diff = sub(project(3, f, build_T_i(i, sig)),
               project(3, f, build_T(sig)))
    marg = project(2, inner.wa, diff)
    return contract(marg, [(build_A_in(i, n, sig), (1, 2)),
                           (outer.wa, (2,))], n)


def loc_i_shap(f, w, i, dist):
    """Local interventional SHAP of feature i for input w under dist."""
    sig = _check_model(f, dist)
    _check_word(w, sig)
    return _shap(f, i, len(w), dist, build_point_hmm(w, sig))


def loc_b_shap(f, w, i, w_ref):
    """Local baseline SHAP of feature i for input w with reference w_ref."""
    sig = _check_model(f)
    if len(w) != len(w_ref):
        raise ValueError("input and reference lengths differ")
    _check_word(w, sig)
    _check_word(w_ref, sig, "reference")
    return _shap(f, i, len(w), build_point_hmm(w_ref, sig),
                 build_point_hmm(w, sig))


def glo_i_shap(f, i, n, dist):
    """Global interventional SHAP of feature i at length n under dist."""
    _check_model(f, dist)
    return _shap(f, i, n, dist, dist)


def glo_b_shap(f, i, n, w_ref, dist):
    """Global baseline SHAP of feature i with reference w_ref, inputs ~ dist."""
    sig = _check_model(f, dist)
    if len(w_ref) != n:
        raise ValueError("reference length must equal n")
    _check_word(w_ref, sig, "reference")
    return _shap(f, i, n, build_point_hmm(w_ref, sig), dist)
