"""Two-party protocols over non-local boxes: synthesis, compilation,
exact execution, and audits, plus oblivious-transfer and secure-AND
bridges, approximate rank, and correlation simulation."""

from .truthtable import (TruthTable, and_table, disj_table, format_truth_table,
                         from_entries, from_function, ip_table,
                         parse_truth_table, xor_table)
from .gf2 import (Gf2Factorization, SpectrumReport, anf, eval_anf, fourier_l1,
                  gf2_factorize, gf2_rank, rank_batch_masks)
from .epsrank import (DimensionLimitError, EpsRankQuery, EpsRankResult,
                      eps_rank, verify_witness)
from .protocols import (AndProtocol, GeneralNlbProtocol, OneWayProtocol,
                        OrderedNlbProtocol, OtProtocol, ParallelProtocol,
                        ParallelXorProtocol, Protocol, ProtocolMixture,
                        TwoWayTree, validate)
from .serialize import ParseError, parse, serialize
from .engine import (AuditViolation, ErrorProfile, OutcomeDistribution,
                     ProtocolError, ResourceLimitError, error_profile,
                     exact_laws, exec_exact, exec_sample, nonsignaling_audit,
                     privacy_audit_and, privacy_audit_ot)
from .compilers import (DistributedCircuit, InputWire,
                        and_from_oneway, circuit_to_nlb, d_oneway,
                        independence_reduce, oneway_from_and, oneway_optimal,
                        oneway_to_parallel, ordered_to_ot, synth_rank,
                        synth_vandam, twoway_to_parallel,
                        xor_normalize_general, xor_normalize_parallel)
from .library import (ChshStrategy, chsh_box_protocol, chsh_classical_optimum,
                      disj_det_protocol, disj_rand_parallel, ip_protocol,
                      vandam_protocol)
from .correlations import (BooleanMixture, CorrelationMatrix, RtContext,
                           correlation_of_table, format_correlation,
                           layercake_decompose, make_context,
                           parse_correlation, rt_comm, rt_nlb, rt_trials,
                           simulate_distribution)

__version__ = "1.0.0"
