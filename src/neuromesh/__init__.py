"""Decentralized multi-agent neural inference runtime.

Four-stage execution (encode, message-pass, aggregate, decode) over a
keep-latest wire protocol, with a concurrent three-stage pipeline, a
deterministic mesh-network simulator, and two desk-scale task
instantiations: linear-sum goal assignment and unicycle navigation.
"""

__version__ = "0.1.0"

from .aggregation import (
    AggregationConfig,
    build_team,
    centralized_rounds,
    diff_sum_aggregate,
    reduce_aggregate,
    resolve_neighborhood,
    run_rounds,
)
from .assignment import (
    Assignment,
    brute_force_solve,
    hungarian_solve,
    quantize_message,
    run_assignment_scenario,
    sr_metric,
    tcp_metric,
)
from .control import (
    BetaParams,
    ControlPolicy,
    UnicycleState,
    beta_sample,
    build_observation,
    policy_forward,
    run_navigation_scenario,
    unicycle_step,
)
from .netsim import (
    LinkModel,
    LoopbackTransport,
    MediumModel,
    MeshSimulator,
    Topology,
    measure_link_quality,
    scalability_sweep,
)
from .pipeline import PipelineStats, run_pipeline, run_sequential
from .tensors import (
    AttentionSpec,
    MlpSpec,
    attention_forward,
    mlp_forward,
    softplus_shift,
)
from .wire import MessageEnvelope, NeighborBuffer, decode_envelope, encode_envelope
