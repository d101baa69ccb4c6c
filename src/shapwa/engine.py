"""Polynomial-time local/global SHAP for weighted automata under HMMs.

The four pipelines compose the builders with projection and the scalar
contractions:

  loc_i:  Pi1(A_{w,i}, Pi2(D, Pi3(f, T_{w,i}) - Pi3(f, T_w)))
  loc_b:  the same with D = the point distribution on w_ref
  glo_i:  Pi0(Pi2(D, A_{i,n} (x) Pi2(D, Pi3(f, T_i) - Pi3(f, T))))
  glo_b:  the same with the inner D replaced by the point distribution

The outermost Pi0 . Pi2 is evaluated as a single fused contraction with
factored matrix-vector products (same scalar by linearity) so the
projected product automaton is never materialized.
"""

from .builders import (build_A_in, build_A_wi, build_point_hmm, build_T,
                       build_T_i, build_T_w, build_T_wi)
from .wa import contract, kron, pi1, project, sub


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


def loc_i_shap(f, w, i, dist):
    """Local interventional SHAP of feature i for input w under dist."""
    sig = _check_model(f, dist)
    _check_word(w, sig)
    if not (1 <= i <= len(w)):
        raise IndexError(f"feature {i} out of range for |w|={len(w)}")
    diff = sub(project(3, f, build_T_wi(w, i, sig)),
               project(3, f, build_T_w(w, sig)))
    marg = project(2, dist.wa, diff)
    return pi1(build_A_wi(w, i, sig), marg, len(w))


def loc_b_shap(f, w, i, w_ref):
    """Local baseline SHAP of feature i for input w with reference w_ref."""
    sig = _check_model(f)
    if len(w) != len(w_ref):
        raise ValueError("input and reference lengths differ")
    _check_word(w, sig)
    _check_word(w_ref, sig, "reference")
    return loc_i_shap(f, w, i, build_point_hmm(w_ref, sig))


def _glo(f, i, n, inner, outer):
    sig = _check_model(f, outer)
    if not (1 <= i <= n):
        raise IndexError(f"feature {i} out of range for n={n}")
    diff = sub(project(3, f, build_T_i(i, sig)),
               project(3, f, build_T(sig)))
    marg = project(2, inner.wa, diff)
    prod = kron(build_A_in(i, n, sig), marg)
    # Pi0(Pi2(outer, prod), n), fused
    return contract(prod, [None, outer.wa], n)


def glo_i_shap(f, i, n, dist):
    """Global interventional SHAP of feature i at length n under dist."""
    _check_model(f, dist)
    return _glo(f, i, n, dist, dist)


def glo_b_shap(f, i, n, w_ref, dist):
    """Global baseline SHAP of feature i with reference w_ref, inputs ~ dist."""
    sig = _check_model(f, dist)
    if len(w_ref) != n:
        raise ValueError("reference length must equal n")
    _check_word(w_ref, sig, "reference")
    return _glo(f, i, n, build_point_hmm(w_ref, sig), dist)
