"""From tabular models to automata — and exact TreeSHAP-style values.

Compiles a small decision tree and a linear model to weighted automata,
an empirical dataset to an HMM, and computes exact SHAP values on the
compiled objects; the numbers agree with direct enumeration over the
original tabular model.
"""

from shapwa import (Dataset, DecisionTree, DTNode, LinearModel, dt_to_wa,
                    emp_to_hmmvec, eval_wa, hmmvec_to_hmm, linear_to_wa,
                    loc_i_shap, shap_oracle_local)
from shapwa.rational import Rat, ZERO, ONE

B = ("0", "1")


def credit_tree():
    """Approve (1) iff feature 1 is '1' and feature 2 is '1', else
    fall back to feature 3."""
    fallback = DTNode(feature=3, children={"0": DTNode(leaf=ZERO),
                                           "1": DTNode(leaf=Rat(1, 2))})
    return DecisionTree(
        DTNode(feature=1, children={
            "0": fallback,
            "1": DTNode(feature=2, children={"0": DTNode(leaf=ZERO),
                                             "1": DTNode(leaf=ONE)})}),
        3, B)


def main():
    tree = credit_tree()
    wa = dt_to_wa(tree)
    print("tree -> WA (dim %d); spot check:" % wa.dim)
    for x in ("110", "011", "001"):
        assert eval_wa(wa, (x,)) == tree.evaluate(x)
        print(f"  f({x}) = {tree.evaluate(x)}")

    data = Dataset(["110", "110", "011", "001", "111"])
    hmm = hmmvec_to_hmm(emp_to_hmmvec(data))
    print("\nempirical dataset of %d rows -> HMM (dim %d)" %
          (len(data.rows), hmm.dim))

    x = "111"
    print(f"\nlocal interventional SHAP at x = {x} under the data:")
    for i in (1, 2, 3):
        phi = loc_i_shap(wa, x, i, hmm)
        assert phi == shap_oracle_local("i", tree, x, i, data)
        print(f"  feature {i}: {phi}")

    lin = LinearModel(3, B, {(1, "1"): Rat(3), (2, "1"): Rat(-1),
                             (3, "1"): Rat(1, 2)}, Rat(1))
    lwa = linear_to_wa(lin)
    print("\nlinear model -> WA (dim %d); SHAP splits the weights:" % lwa.dim)
    for i in (1, 2, 3):
        phi = loc_i_shap(lwa, "111", i, hmm)
        assert phi == shap_oracle_local("i", lin, "111", i, data)
        print(f"  feature {i}: {phi}")


if __name__ == "__main__":
    main()
