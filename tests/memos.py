"""One reset for every memo of the package, for tests that start cold or plant a fault.

:func:`package_memos` walks every module of the package and finds each
module-level memo: each ``lru_cache`` the package defines, wherever a module
binds it, each :class:`~chargedfock.twodim.PsiCache`, and each dict that
:data:`NOT_MEMOS` does not name.  :func:`fresh_memos` resets all of them.
"""

import importlib
import pkgutil
from functools import lru_cache

import chargedfock
from chargedfock.twodim import PsiCache

# module-level dicts that hold no memo: the run counters, which each report
# reads as differences, and constant tables
NOT_MEMOS = {
    "desitter": ("_REUSE",),
    "fock": ("STACKS",),
    "harness": ("_RESIDUALS",),
    "twodim": ("COUNTS",),
    "cli": ("_VERDICT_CODE", "_OPTIONS"),
    "config": ("CONFIG_KEYS",),
    "scalar": ("_IRRATIONAL_TOKENS",),
}


def package_modules():
    return [importlib.import_module(f"chargedfock.{info.name}") for info in pkgutil.iter_modules(chargedfock.__path__)]


def is_lru_cache(value) -> bool:
    return hasattr(value, "cache_parameters") and getattr(value, "__module__", "").startswith("chargedfock.")


def package_memos():
    """(module, name, memo) for each module-level binding of a memo."""
    modules = package_modules()
    named = {id(vars(m)[name]) for m in modules for name in NOT_MEMOS.get(m.__name__.rsplit(".", 1)[1], ())}
    return [
        (module, name, value)
        for module in modules
        for name, value in list(vars(module).items())
        if not name.startswith("__")
        and (is_lru_cache(value) or isinstance(value, PsiCache) or (isinstance(value, dict) and id(value) not in named))
    ]


def fresh_memos(monkeypatch=None):
    """Reset every memo of the package.

    With ``monkeypatch``, each memo gets a fresh store for the test and the
    clean one comes back afterwards.  The stack, pairing-piece, commutator and
    image memos are keyed by value, not by the rows or stacks they were built
    from, so a planted fault must neither read their clean entries nor leave
    its faulted ones for a later test.  Without it, each memo is emptied in
    place: a cold start."""
    fresh = {}
    for module, name, memo in package_memos():
        if monkeypatch is None:
            if isinstance(memo, PsiCache):
                memo._store.clear()
            elif is_lru_cache(memo):
                memo.cache_clear()
            else:
                memo.clear()
        elif isinstance(memo, PsiCache):
            monkeypatch.setattr(memo, "_store", {})
        else:
            if id(memo) not in fresh:
                lru = is_lru_cache(memo)
                fresh[id(memo)] = lru_cache(**memo.cache_parameters())(memo.__wrapped__) if lru else type(memo)()
            monkeypatch.setattr(module, name, fresh[id(memo)])
