import pytest

from ffzeta.gf import GF, poly_from_str
from ffzeta.ring import RingElement, RingSpec


def _cab(field, c0, c1, name):
    return RingSpec.cab(field, (poly_from_str(field, c0),
                                poly_from_str(field, c1)), name=name)


@pytest.fixture(scope="session")
def ex26():
    """y^2 + (x^2+x+1) y = (x^2+x+1)(x^5+x^2+1) over F_2, genus 3."""
    return _cab(GF(2), "x^7 + x^6 + x^5 + x^4 + x^3 + x + 1", "x^2 + x + 1",
                "ex26")


@pytest.fixture(scope="session")
def ex36():
    """y^2 = x^5 + 2x over F_3, genus 2."""
    return _cab(GF(3), "2*x^5 + x", "0", "ex36")


@pytest.fixture(scope="session")
def xy5():
    """y^2 + x y = x^5 + x + 1 over F_5: genus 2, h = 25, a y-term at odd p."""
    return _cab(GF(5), "4*x^5 + 4*x + 4", "x", "xy5")


@pytest.fixture(scope="session")
def e1():
    """y^2 + y = x^3 + x + 1 over F_2: genus 1, h = 1."""
    return _cab(GF(2), "x^3 + x + 1", "1", "e1")


@pytest.fixture(scope="session")
def h4g3():
    """y^2 + (x^2+x) y = (x^2+x)(x^5+x^3+x^2+x+1) over F_2: h = 4, g = 3."""
    return _cab(GF(2), "x^7 + x^6 + x^5 + x", "x^2 + x", "h4g3")


@pytest.fixture(scope="session")
def m3f2():
    """y^3 + y = x^2 + x over F_2: rank 3, h = 5."""
    F2 = GF(2)
    return RingSpec.cab(F2, tuple(poly_from_str(F2, c)
                                  for c in ("x^2 + x", "1", "0")), name="m3f2")


@pytest.fixture(scope="session")
def m3f5():
    """y^3 = x^2 + 2 over F_5: rank 3, h = 6."""
    F5 = GF(5)
    return RingSpec.cab(F5, tuple(poly_from_str(F5, c)
                                  for c in ("4*x^2 + 3", "0", "0")), name="m3f5")


@pytest.fixture(scope="session")
def m3f2b():
    """y^3 + xy = x^4 + 1 over F_2: rank 3, genus 3, h = 24."""
    F2 = GF(2)
    return RingSpec.cab(F2, tuple(poly_from_str(F2, c)
                                  for c in ("x^4 + 1", "x", "0")), name="m3f2b")


@pytest.fixture(scope="session")
def h4g3_classes(h4g3):
    from ffzeta.ideals import class_group
    return class_group(h4g3)


@pytest.fixture
def no_powers(monkeypatch):
    """Fail the test at the first ring-element power."""
    def refuse(self, s):
        raise AssertionError("a ring-element power was taken")

    monkeypatch.setattr(RingElement, "pow_digits", refuse)
