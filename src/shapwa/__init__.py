"""Exact SHAP scores for weighted automata, in polynomial time.

The package computes local and global SHAP values — under the baseline,
interventional and (where tractable) conditional value functions — for
models given as weighted automata, with background distributions given
as hidden Markov models.  Tabular models (trees, ensembles, linear
models) and distribution families compile into that form; hardness
reductions for the intractable variants are provided as runnable
gadget instances.
"""

from .rational import Rat, rat, format_rat
from .wa import (NAlphabetWA, eval_wa, add, scale, sub, kron, project,
                 contract, pi1, pi0, wa_from_parts, dfa_to_wa, chain_wa,
                 wa_to_json, wa_from_json)
from .hmm import Hmm, uniform_hmm, hmm_to_json, hmm_from_json
from .patterns import swap, do_op, matches, coalition_weight
from .builders import (build_A_wi, build_A_in, build_T_w, build_T_wi,
                       build_T, build_T_i, build_point_hmm, pipeline_shap)
from .engine import shap_all, loc_i_shap, loc_b_shap, glo_i_shap, glo_b_shap
from .models import (DecisionTree, DTNode, TreeEnsemble, LinearModel,
                     RnnRelu, SigmoidNet, HmmVec, Dataset, IndDist,
                     MarkovDist, NaiveBayes)
from .frontends import (dt_to_wa, ensemble_reg_to_wa, linear_to_wa,
                        emp_to_hmmvec, hmmvec_to_hmm, ind_to_hmmvec,
                        markov_to_hmm, nb_to_hmmvec, sequentialize)
from .oracle import (GuardExceeded, ZeroProbabilityEvent, Wmg, CnfFormula,
                     CspInstance, eval_model, value_fn,
                     shap_oracle_local, shap_oracle_global, shap_oracle_all,
                     shap_oracle_many, dummy_check, csp_brute, empty_brute)
from .gadgets import (wmg_to_sigmoid, wmg_to_rnnrelu, sat_to_ensemble,
                      csp_construct, csp_to_rnn)
