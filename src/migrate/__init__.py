"""Mixed-policy GRPO as a test-time search algorithm.

A small analytically-differentiable token policy stands in for the language
model: each search iteration builds a group from fresh on-policy samples,
reused top-scoring archive entries, and local variations of high-reward
solutions, then takes clipped policy-gradient steps toward the group's
better-than-average members. Three desk-scale black-box tasks, all
baselines, and a reproducible experiment harness are included.
"""

from .archive import Archive, IslandConfig
from .completion import Completion
from .grpo import (Adam, GrpoDiagnostics, Group, UpdateSpec, compute_advantages,
                   grpo_loss_and_grad, make_group, update_policy)
from .harness import (RunConfig, Trace, bootstrap_nearest, build_task, default_config,
                      emit_trace, run_any, sweep)
from .policy import (TASK_CONTEXT, ContextKind, PolicyParams, Vocabulary, init_params,
                     load_params, logprobs, sample_completion, save_params)
from .sampler import (MixSpec, construct_group, propose_neighborhood, propose_trajectory,
                      sample_online, select_greedy)

__version__ = "0.1.0"

__all__ = [
    "Archive", "IslandConfig", "Completion",
    "Adam", "GrpoDiagnostics", "Group", "UpdateSpec",
    "compute_advantages", "grpo_loss_and_grad", "make_group", "update_policy",
    "RunConfig", "Trace", "bootstrap_nearest", "build_task", "default_config",
    "emit_trace", "run_any", "sweep",
    "TASK_CONTEXT", "ContextKind", "PolicyParams", "Vocabulary",
    "init_params", "load_params", "logprobs", "sample_completion", "save_params",
    "MixSpec", "construct_group", "propose_neighborhood",
    "propose_trajectory", "sample_online", "select_greedy",
    "__version__",
]
