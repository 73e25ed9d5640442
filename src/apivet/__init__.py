"""Invariant inference and explainable anomaly detection for web API logs.

The package learns an augmented entity model of an application (API calls,
database tables, session environments), infers how those entities join,
proposes per-call invariants, keeps only the ones all training traffic
satisfies, and then flags and explains any call that breaks them.
"""

__version__ = "0.1.0"

# Each re-exported name is imported from its module on first access, so that
# importing one submodule (or the CLI) does not load the detection stack.
_EXPORTS = {
    "ApivetError": "errors",
    "Invariant": "dsl",
    "PipelineConfig": "config",
    "Relationship": "relations",
    "SchemaBundle": "schema",
    "build_joined_groups": "joins",
    "check_corpus": "detector",
    "evaluate": "dsl",
    "evaluate_metrics": "detector",
    "explain": "dsl",
    "flatten_api_signature": "sources",
    "load_config": "config",
    "parse_create_table": "sources",
    "parse_invariant": "dsl",
    "print_invariant": "dsl",
    "refine_candidates": "refine",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f".{module}", __name__), name)
