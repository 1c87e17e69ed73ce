"""``memos.fresh_memos`` resets every module-level memo of the package."""

from fractions import Fraction

from chargedfock.desitter import verify_lorentz
from chargedfock.fock import Space, Truncation
from chargedfock.harness import commutativity_report, current_bracket_suite, primary_covariance_suite
from chargedfock.scalar import make_context
from chargedfock.twodim import PsiCache
from memos import NOT_MEMOS, fresh_memos, package_modules

HALF = Fraction(1, 2)


def _sizes() -> dict:
    """Module-level binding -> size, for each lru_cache, PsiCache and dict of
    the package that NOT_MEMOS does not name, found here by its own walk."""
    modules = package_modules()
    named = {id(vars(m)[name]) for m in modules for name in NOT_MEMOS.get(m.__name__.rsplit(".", 1)[1], ())}
    sizes = {}
    for module in modules:
        for name, value in vars(module).items():
            where = f"{module.__name__.rsplit('.', 1)[1]}.{name}"
            if name.startswith("__") or id(value) in named:
                continue
            if hasattr(value, "cache_info"):
                sizes[where] = value.cache_info().currsize
            elif isinstance(value, PsiCache):
                sizes[where] = len(value._store)
            elif isinstance(value, dict):
                sizes[where] = len(value)
    return sizes


def _fill():
    sp = Space(make_context("exact-rational"), HALF, Truncation(5, -2, 2))
    verify_lorentz(sp, HALF, Fraction(1, 4), interior_buffer=3, seed=0, samples=1)
    commutativity_report(sp, HALF, m_range=1, samples=1, low_cutoff=4)
    current_bracket_suite(sp)
    primary_covariance_suite(sp, HALF)


def test_the_reset_empties_every_module_level_memo():
    _fill()
    filled = {where for where, size in _sizes().items() if size}
    assert {"twodim._commutator_slot", "desitter._entry_slot", "twodim.IMAGES", "fock.level_stacks"} <= filled
    fresh_memos()
    assert {where: size for where, size in _sizes().items() if size} == {}


def test_the_planted_reset_gives_fresh_stores_and_restores_the_clean_ones(monkeypatch):
    _fill()
    before = _sizes()
    with monkeypatch.context() as patch:
        fresh_memos(patch)
        assert {where: size for where, size in _sizes().items() if size} == {}
        _fill()
    assert _sizes() == before
