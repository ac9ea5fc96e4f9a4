"""The operations the shape bases of `coalg.functors` share, checked on
every constructor: the matching of two precise factorizations (`pair`) and
tree fingerprints, under renamings and reorderings that must not change
them and single changes that must; and the guard that keeps constructor
tests inside the grammar module and the oracles."""

from __future__ import annotations

import ast
import pathlib
import random

from coalg import (
    Bag,
    BagVal,
    Compose,
    Const,
    ConstVal,
    Coproduct,
    Exponent,
    FMap,
    FiniteSet,
    FunVal,
    IdVal,
    Identity,
    PointedCoalgebra,
    Pow,
    PowNotPrecise,
    PreciseFactorization,
    Product,
    SetVal,
    TagVal,
    TotalMap,
    TupleVal,
    factorization_iso,
    fmap,
    precise_factorize,
    tree_fingerprint,
    tree_unravelling,
)
from coalg.unravelling import complete_counts

import generators

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "coalg"
CONSTRUCTORS = ("Identity", "Const", "Product", "Coproduct", "Exponent",
                "Compose", "Bag", "Pow")


def shuffle(rng: random.Random, items) -> list:
    items = list(items)
    return rng.sample(items, len(items))


def reordered(rng: random.Random, v):
    """`v` with the entries of every bag and exponent value and the members
    of every set, at every layer, in a random order: the same value."""
    if isinstance(v, (str, ConstVal)):
        return v
    if isinstance(v, IdVal):
        return IdVal(reordered(rng, v.member))
    if isinstance(v, TupleVal):
        return TupleVal(tuple(reordered(rng, w) for w in v.items))
    if isinstance(v, TagVal):
        return TagVal(v.tag, reordered(rng, v.value))
    if isinstance(v, FunVal):
        return FunVal(shuffle(rng, ((a, reordered(rng, w))
                                    for a, w in v.entries)))
    if isinstance(v, BagVal):
        return BagVal(shuffle(rng, ((reordered(rng, m), n)
                                    for m, n in v.entries)))
    return SetVal(shuffle(rng, (reordered(rng, m) for m in v.members)))


def changes(f, v, member=lambda m: iter(())):
    """Every value made from `v` by one change at one node of `f`: a
    constant replaced by another of its set, or a bag multiplicity raised
    by one.  `member(m)` gives the changes of a member: none for a state
    id, the changes of the inner value under composition."""
    if isinstance(f, Const):
        yield from (ConstVal(e) for e in f.values if e != v.element)
    elif isinstance(f, Identity):
        yield from map(IdVal, member(v.member))
    elif isinstance(f, Product):
        for i, w in enumerate(v.items):
            for bad in changes(f.factors[i], w, member):
                yield TupleVal(v.items[:i] + (bad,) + v.items[i + 1:])
    elif isinstance(f, Coproduct):
        for bad in changes(f.summands[v.tag], v.value, member):
            yield TagVal(v.tag, bad)
    elif isinstance(f, Exponent):
        for i, (a, w) in enumerate(v.entries):
            for bad in changes(f.base, w, member):
                yield FunVal(v.entries[:i] + ((a, bad),) + v.entries[i + 1:])
    elif isinstance(f, Compose):
        yield from changes(f.outer, v,
                           lambda m: changes(f.inner, m, member))
    elif isinstance(f, Bag):
        for i, (m, n) in enumerate(v.entries):
            rest = v.entries[:i] + v.entries[i + 1:]
            yield BagVal(rest + ((m, n + 1),))
            yield from (BagVal(rest + ((bad, n),)) for bad in member(m))
    else:
        for i, m in enumerate(v.members):
            rest = v.members[:i] + v.members[i + 1:]
            yield from (SetVal(rest + (bad,)) for bad in member(m))


def constructors(f) -> set[str]:
    """The names of the constructor classes that occur in `f`."""
    return {type(f).__name__}.union(*map(constructors, f.children()))


def test_factorizations_match_on_every_constructor():
    rng = random.Random(26)
    seen: set[str] = set()
    matched = moved = 0
    for _ in range(600):
        f = generators.random_fmap(rng, depth=3, pow_free=False)
        try:
            pf = precise_factorize(f)
        except PowNotPrecise:
            continue
        functor, domain = f.functor, f.domain
        seen |= constructors(functor)

        rho = generators.random_renaming(rng, pf.middle)
        renamed = PreciseFactorization(
            rho.codomain,
            FMap(domain, rho.codomain, functor,
                 {x: fmap(functor, rho, pf.p.values[x]) for x in domain}),
            TotalMap(rho.codomain, pf.h.codomain,
                     {rho[r]: pf.h[r] for r in pf.middle}))
        assert factorization_iso(pf, renamed).mapping() == rho.mapping()

        tagged = precise_factorize(f, "t:")
        factorization_iso(pf, tagged)
        values = {x: reordered(rng, tagged.p.values[x]) for x in domain}
        moved += repr(values) != repr(tagged.p.values)
        shuffled = PreciseFactorization(
            tagged.middle,
            FMap(domain, tagged.middle, functor, values), tagged.h)
        factorization_iso(pf, shuffled)
        matched += 1
    assert seen == set(CONSTRUCTORS)
    assert matched > 300 and moved > 50


def complete_trees(rng: random.Random, count: int):
    """`count` complete trees, unravelled from shared DAGs and from
    acyclic, precise random coalgebras, each of at most 200 states."""
    made = 0
    while made < count:
        if made % 2:
            c = generators.random_shared_dag(rng)
        else:
            c = generators.random_coalgebra(rng, max_states=5, depth=3)
        counts = complete_counts(c)
        if counts is None or sum(counts.values()) > 200:
            continue
        made += 1
        yield tree_unravelling(c).tree


def test_tree_fingerprints_ignore_names_and_order_on_every_constructor():
    rng = random.Random(2026)
    seen: set[str] = set()
    moved = changed = 0
    for tree in complete_trees(rng, 300):
        functor, fp = tree.functor, tree_fingerprint(tree)
        seen |= constructors(functor)

        rho = generators.random_renaming(rng, tree.carrier, "r")
        structure = {rho[x]: reordered(rng, fmap(functor, rho, v))
                     for x, v in tree.structure.items()}
        again = PointedCoalgebra(functor,
                                 generators.shuffled(rng, rho.codomain),
                                 structure, rho[tree.point])
        moved += repr(list(structure.values())) != repr(
            [fmap(functor, rho, v) for v in tree.structure.values()])
        assert tree_fingerprint(again) == fp

        for x in rng.sample(list(tree.carrier), min(3, len(tree.carrier))):
            for bad in changes(functor, tree.structure[x]):
                other = PointedCoalgebra(functor, tree.carrier,
                                         {**tree.structure, x: bad},
                                         tree.point)
                assert tree_fingerprint(other) != fp
                changed += 1
    assert seen == set(CONSTRUCTORS)
    assert moved > 50 and changed > 300


def constructor_tests(source: str, filename: str = "<source>") -> list[str]:
    """Each `isinstance` call in `source` whose class argument names a
    functor constructor, as `file:line`."""
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2):
            names = {n.id if isinstance(n, ast.Name) else n.attr
                     for n in ast.walk(node.args[1])
                     if isinstance(n, (ast.Name, ast.Attribute))}
            if names & set(CONSTRUCTORS):
                found.append(f"{filename}:{node.lineno}")
    return found


def test_the_guard_finds_constructor_tests():
    assert constructor_tests("isinstance(f, (Bag, Pow))")
    assert constructor_tests("isinstance(f, functors.Exponent)")
    assert not constructor_tests("isinstance(obj, PointedCoalgebra)")
    assert not constructor_tests("isinstance(v, BagVal)")


def test_only_the_grammar_and_the_oracles_test_constructor_classes():
    # every other module walks the grammar through the constructors' own
    # methods; the oracles keep walks of their own on purpose
    modules = [p for p in sorted(SRC.glob("*.py"))
               if p.name not in ("functors.py", "oracles.py")]
    assert len(modules) > 5
    found = [hit for p in modules for hit in constructor_tests(
        p.read_text(encoding="utf-8"), p.name)]
    assert found == []
