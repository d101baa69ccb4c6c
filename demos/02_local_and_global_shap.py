"""Exact SHAP values for a weighted automaton under an HMM.

Takes the AND function over binary strings, computes local baseline and
interventional SHAP values and their global aggregates with the
polynomial-time engine, and confirms every number against the
exponential enumeration oracle.
"""

from shapwa import (NAlphabetWA, glo_b_shap, glo_i_shap, loc_b_shap,
                    loc_i_shap, shap_oracle_global, shap_oracle_local,
                    uniform_hmm)
from shapwa.linalg import SpMat
from shapwa.rational import ONE

B = ("0", "1")


def and_wa():
    """f(w) = 1 iff every symbol is '1' (single rejecting trap implicit)."""
    return NAlphabetWA([B], [ONE], {("1",): SpMat.from_dense([[ONE]])}, [ONE])


def main():
    f = and_wa()
    D = uniform_hmm(B)
    w, w_ref, n = "111", "000", 3

    print(f"model: AND over {{0,1}}^{n},  input {w},  reference {w_ref}\n")
    for i in (1, 2, 3):
        b = loc_b_shap(f, w, i, w_ref)
        s = loc_i_shap(f, w, i, D)
        assert b == shap_oracle_local("b", f, w, i, w_ref)
        assert s == shap_oracle_local("i", f, w, i, D)
        print(f"feature {i}:  baseline phi = {b}   interventional phi = {s}")

    print("\nglobal values at length", n, "(expectation over uniform inputs):")
    for i in (1, 2, 3):
        gb = glo_b_shap(f, i, n, w_ref, D)
        gi = glo_i_shap(f, i, n, D)
        assert gb == shap_oracle_global("b", f, i, n, w_ref, D)
        assert gi == shap_oracle_global("i", f, i, n, D, D)
        print(f"feature {i}:  global baseline = {gb}   global interventional"
              f" = {gi}")

    print("\nglobal interventional values vanish for every model: inputs and"
          "\nreplacements come independently from one distribution, so a"
          "\ncoalition S is worth what its complement is worth, and the"
          "\nterms of S and of the other features outside S cancel.")


if __name__ == "__main__":
    main()
