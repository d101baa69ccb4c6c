"""Hardness reductions as runnable instances.

Each gadget turns a decision problem into one baseline-SHAP query:

  weighted majority game -> sigmoid net:   dummy player iff phi_b <= eps
  weighted majority game -> ReLU RNN:      dummy player iff phi_b = 0
  3-CNF formula -> voting tree ensemble:   satisfiable iff phi_b > 0
  closest-string instance -> ReLU RNN:     no witness iff f is empty

The script reduces one instance of each problem through the table that
`shapwa gadget` and `shapwa verify` use, and checks that the verdict read
from the gadget agrees with the brute-force answer.
"""

from shapwa import CnfFormula, CspInstance, Wmg
from shapwa.cli import GADGETS


def main():
    game = Wmg(powers=[3, 2, 2, 0], quota=5)
    problems = [
        ("sigmoid", (game, 1)), ("rnn", (game, 1)),
        ("sigmoid", (game, 4)), ("rnn", (game, 4)),
        ("sat", CnfFormula(3, [[1, -2, 3], [-1, 2], [-3]])),
        ("csp", CspInstance(["0011", "1001", "0001"], 1, ("0", "1"))),
    ]
    for kind, problem in problems:
        reduce, certify = GADGETS[kind]
        agree, record = certify(problem, reduce(problem))
        print(f"{kind} gadget for {problem}:")
        print(f"  {record}")
        assert agree


if __name__ == "__main__":
    main()
