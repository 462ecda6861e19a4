"""Decorators that mark code for :mod:`repro.analysis`, at no import cost.

Model and serving code applies these markers; only the analysis tools
read them.  Keeping them here, outside :mod:`repro.analysis`, means an
``import repro`` never loads the lint, dataflow, contract-checker or
sanitizer modules.

- :func:`shape_contract` attaches the raw ``inputs``/``output`` spec as
  ``fn.__shape_contract__``.  The contract checker
  (``repro.cli check``) parses and validates it when it first traces the
  method (:func:`repro.analysis.contracts.spec.contract_of`).
- :func:`inference_entry` sets ``fn.__inference_entry__``; ``lint
  --dataflow`` matches the decorator by name in the AST.
"""

from __future__ import annotations

from typing import Mapping, Optional

__all__ = ["inference_entry", "shape_contract"]


def shape_contract(inputs: Optional[Mapping[str, object]] = None, output=None):
    """Declare the symbolic input/output shapes of a forward method.

    See :mod:`repro.analysis.contracts.spec` for the spec syntax.  The
    spec is stored as given and checked only inside a contract trace.
    """
    spec = {"inputs": inputs, "output": output}

    def decorate(fn):
        fn.__shape_contract__ = spec
        return fn

    return decorate


def inference_entry(fn):
    """Mark a function as an inference-purity entry point for
    ``lint --dataflow``.

    Apply it to serving request-path functions (``submit``,
    ``forecast_batch``) so their whole call closure is checked for
    global-RNG draws and ``backward()`` exactly like a ``predict*`` method.
    """
    fn.__inference_entry__ = True
    return fn
