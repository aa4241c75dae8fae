"""SPMD correctness analyzer: static lint + dynamic sanitizer.

Three pieces, one contract (see DESIGN §8 and §13):

* :mod:`repro.analysis.lint` — the ``repro lint`` static checker:
  rule table, suppressions (with the SP099 stale-suppression check),
  entry points and the syntactic rules SP101, SP103, SP105 and SP106;
* :mod:`repro.analysis.protocol` — the checker's program walker:
  communication summaries extracted across modules and model-checked
  for rank-divergent collective schedules (SP102, SP108), unmatched
  point-to-point traffic, unordered peers, static deadlocks, payloads
  mutated before delivery (SP104, SP111) and hot-kernel perf
  discipline;
* :mod:`repro.analysis.sanitizer` — the runtime sanitizer behind
  ``run_spmd(..., sanitize=True)``: payload checksums, the collective
  ledger, undriven-generator and undelivered-message reporting.
"""

from .lint import (  # noqa: F401
    Finding,
    Rule,
    RULES,
    findings_to_json,
    findings_to_sarif,
    iter_python_files,
    lint_file,
    lint_paths,
    lint_source,
)
from .protocol import HOT_KERNELS, check_registry, program_ops  # noqa: F401
from .sanitizer import Sanitizer, payload_checksum  # noqa: F401

__all__ = [
    "Finding",
    "Rule",
    "RULES",
    "findings_to_json",
    "findings_to_sarif",
    "iter_python_files",
    "lint_file",
    "lint_paths",
    "lint_source",
    "HOT_KERNELS",
    "check_registry",
    "program_ops",
    "Sanitizer",
    "payload_checksum",
]
