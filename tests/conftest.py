import pytest

import hyperlab as H

# every fixture of 16 elements or fewer
SMALL_FIXTURES = (
    ["paper-2-4", "paper-3-3", "paper-3-3-s1"]
    + [f"ring:Z{k}" for k in range(2, 17)]
    + [f"ring:Z{j}xZ{k}" for j in range(2, 9) for k in range(2, 9) if j * k <= 16])


@pytest.fixture(scope="session")
def madar():
    return H.fixture("paper-2-4").structure


@pytest.fixture(scope="session")
def ex33():
    return H.fixture("paper-3-3").structure


@pytest.fixture(scope="session")
def z4():
    return H.fixture("ring:Z4").structure


@pytest.fixture(scope="session")
def z6():
    return H.fixture("ring:Z6").structure


@pytest.fixture(scope="session")
def z12():
    return H.fixture("ring:Z12").structure


@pytest.fixture(scope="session")
def z2z3():
    return H.fixture("ring:Z2xZ3").structure


@pytest.fixture(scope="session")
def lattices(madar, z4, z6, z12, z2z3):
    return {a.label: H.enumerate_hyperideals(a)
            for a in (madar, z4, z6, z12, z2z3)}


@pytest.fixture(scope="session")
def corpus():
    return H.build_corpus(H.DEFAULT_CORPUS)


@pytest.fixture(scope="session")
def default_suite():
    """One shared run of the full statement suite over the default corpus."""
    return H.run_suite(H.DEFAULT_CORPUS)


def mutated(a, *, f_key=None, f_value=None, g_key=None, g_value=None):
    """Copy of a structure with one table entry replaced."""
    f_entries = {k: tuple(v) for k, v in a.f_table.items()}
    g_entries = dict(a.g_table)
    if f_key is not None:
        f_entries[f_key] = f_value
    if g_key is not None:
        g_entries[g_key] = g_value
    return H.HyperStructure.from_tables(
        a.m, a.n, a.names, f_entries, g_entries, a.zero, a.one,
        label=a.label + "-mutated")
