"""Settings shared by every test file.

Hypothesis adds the literal constants of every imported local module to
the pool its strategies draw from, so a constant edited anywhere in
``gaugecert`` could change which examples a ``derandomize=True`` test
draws.  The pool of local constants is pinned empty here, so each such
test draws the same examples whatever the package's literals are.  The
hook is private to Hypothesis: under a version without it the pin is
skipped, and only the pin is lost.
"""

try:
    from hypothesis.internal.conjecture import providers
except ImportError:  # pragma: no cover - another Hypothesis layout
    providers = None

if hasattr(providers, "_get_local_constants") and \
        hasattr(providers, "Constants"):
    providers._get_local_constants = providers.Constants
