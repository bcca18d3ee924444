"""Parallel patch factory: multi-process offline diagnosis.

Fan an attack corpus out over worker processes, replay each report under
shadow analysis, and merge the resulting patches into deterministic
per-workload patch tables (``jobs=N`` bit-identical to ``jobs=1``).
"""

from .engine import (
    DiagnosisError,
    DiagnosisPlan,
    DiagnosisPool,
    ProgramPlan,
)
from .fanout import fanout_map
from .result import CorpusDiagnosis, DiagnosisResult
from .workers import resolve_jobs

__all__ = [
    "CorpusDiagnosis",
    "DiagnosisError",
    "DiagnosisPlan",
    "DiagnosisPool",
    "DiagnosisResult",
    "ProgramPlan",
    "fanout_map",
    "resolve_jobs",
]
