"""Seeded random instance builders shared by the property tests.

Everything takes an explicit random.Random so failures reproduce from the
seed in the test that drew them.
"""

from __future__ import annotations

import random

from coalg import (
    Bag,
    BagVal,
    Compose,
    Const,
    ConstVal,
    Coproduct,
    Edge,
    Exponent,
    FMap,
    FiniteSet,
    FunVal,
    IdVal,
    Identity,
    Multigraph,
    PartialDFA,
    PointedCoalgebra,
    Pow,
    Product,
    SetVal,
    TagVal,
    TotalMap,
    TupleVal,
    parse_functor,
)

LETTERS = ("a", "b", "c")


def random_functor(rng: random.Random, depth: int = 2, pow_free: bool = False,
                   letters: tuple[str, ...] = LETTERS):
    leaves = ["Id", "Const", "Bag"] + ([] if pow_free else ["Pow"])
    nodes = leaves + ["Product", "Coproduct", "Exponent", "Compose"]
    pick = rng.choice(leaves if depth <= 0 else nodes)
    if pick == "Id":
        return Identity()
    if pick == "Const":
        return Const(FiniteSet(letters[: rng.randint(1, 3)]))
    if pick == "Bag":
        return Bag()
    if pick == "Pow":
        return Pow()
    if pick == "Product":
        return Product(tuple(random_functor(rng, depth - 1, pow_free, letters)
                             for _ in range(rng.randint(2, 3))))
    if pick == "Coproduct":
        return Coproduct(tuple(random_functor(rng, depth - 1, pow_free, letters)
                               for _ in range(rng.randint(2, 3))))
    if pick == "Exponent":
        return Exponent(random_functor(rng, depth - 1, pow_free, letters),
                        FiniteSet(letters[: rng.randint(1, 2)]))
    return Compose(random_functor(rng, depth - 1, pow_free, letters),
                   random_functor(rng, depth - 1, pow_free, letters))


def random_value(rng: random.Random, functor, carrier):
    names = list(carrier)
    return _value(rng, functor, lambda: rng.choice(names))


def _value(rng, f, leaf):
    if isinstance(f, Identity):
        return IdVal(leaf())
    if isinstance(f, Const):
        return ConstVal(rng.choice(list(f.values)))
    if isinstance(f, Product):
        return TupleVal(tuple(_value(rng, g, leaf) for g in f.factors))
    if isinstance(f, Coproduct):
        tag = rng.randrange(len(f.summands))
        return TagVal(tag, _value(rng, f.summands[tag], leaf))
    if isinstance(f, Exponent):
        return FunVal(tuple((a, _value(rng, f.base, leaf))
                            for a in f.alphabet))
    if isinstance(f, Compose):
        return _value(rng, f.outer, lambda: _value(rng, f.inner, leaf))
    if isinstance(f, Bag):
        return BagVal(tuple((leaf(), rng.randint(1, 2))
                            for _ in range(rng.randint(0, 3))))
    if isinstance(f, Pow):
        return SetVal(tuple(leaf() for _ in range(rng.randint(0, 3))))
    raise AssertionError(f"no generator for {f!r}")


def random_coalgebra(rng: random.Random, max_states: int = 8, depth: int = 2,
                     pow_free: bool = False,
                     open_states: bool = False,
                     letters: tuple[str, ...] = LETTERS) -> PointedCoalgebra:
    n = rng.randint(1, max_states)
    carrier = FiniteSet(tuple(f"s{i}" for i in range(n)))
    functor = random_functor(rng, depth, pow_free, letters)
    frontier: tuple[str, ...] = ()
    if open_states and n > 1 and rng.random() < 0.25:
        pool = [x for x in carrier if x != "s0"]
        frontier = tuple(rng.sample(pool, rng.randint(1, min(2, len(pool)))))
    structure = {x: random_value(rng, functor, carrier)
                 for x in carrier if x not in frontier}
    return PointedCoalgebra(functor, carrier, structure, "s0",
                            FiniteSet(frontier))


DAG_FUNCTORS = ("Bag", "Bag . (Id x 2)", "Pow")


def random_shared_dag(rng: random.Random, max_states: int = 8,
                      functor: str | None = None) -> PointedCoalgebra:
    """A total coalgebra over Bag, Bag . (Id x 2) or Pow whose slot graph is
    a DAG with shared successors.

    A random recursive tree from s0 reaches every state; extra edges from
    earlier to later states share successors, and bag multiplicities of 1
    or 2 multiply the copies further.  Pow states without successors are
    empty leaves, the only precise Pow values.  One draw in ten gets a back
    edge (a reachable cycle), one in ten a state nothing reaches, so every
    diagnosis of the tree check turns up, `sharing` most often.
    """
    text = functor if functor is not None else rng.choice(DAG_FUNCTORS)
    f = parse_functor(text)
    n = rng.randint(1, max_states)
    succ: dict[int, list[int]] = {i: [] for i in range(n)}
    for j in range(1, n):
        succ[rng.randrange(j)].append(j)
    for _ in range(rng.randint(0, n) if n > 1 else 0):
        j = rng.randint(1, n - 1)
        succ[rng.randrange(j)].append(j)
    if rng.random() < 0.1:
        i = rng.randrange(n)
        succ[i].append(rng.randint(0, i))
    if rng.random() < 0.1:
        succ[n] = [rng.randrange(n)] if rng.random() < 0.5 else []
        n += 1
    carrier = FiniteSet(tuple(f"s{i}" for i in range(n)))
    structure = {}
    for i, kids in succ.items():
        targets = list(dict.fromkeys(f"s{j}" for j in kids))
        if text == "Pow":
            structure[f"s{i}"] = SetVal(tuple(targets))
        elif text == "Bag":
            structure[f"s{i}"] = BagVal(tuple((y, rng.randint(1, 2))
                                              for y in targets))
        else:
            structure[f"s{i}"] = BagVal(tuple(
                (TupleVal((IdVal(y), ConstVal(rng.choice("01")))),
                 rng.randint(1, 2)) for y in targets))
    return PointedCoalgebra(f, carrier, structure, "s0")


def random_multigraph(rng: random.Random, max_vertices: int = 8,
                      max_edges: int = 12) -> Multigraph:
    n = rng.randint(1, max_vertices)
    vertices = FiniteSet(tuple(f"v{i}" for i in range(n)))
    edges = tuple(Edge(f"e{k}", f"v{rng.randrange(n)}", f"v{rng.randrange(n)}")
                  for k in range(rng.randint(0, max_edges)))
    return Multigraph(vertices, edges, "v0")


def random_acyclic_dfa(rng: random.Random, max_states: int = 6,
                       max_letters: int = 3) -> PartialDFA:
    n = rng.randint(1, max_states)
    states = FiniteSet(tuple(f"q{i}" for i in range(n)))
    alphabet = FiniteSet(LETTERS[: rng.randint(1, max_letters)])
    delta = {}
    for i in range(n - 1):
        for a in alphabet:
            # edges only ever point at later states, so the DFA is acyclic
            if rng.random() < 0.6:
                delta[(f"q{i}", a)] = f"q{rng.randint(i + 1, n - 1)}"
    accepting = frozenset(q for q in states if rng.random() < 0.4)
    return PartialDFA(alphabet, states, accepting, delta, "q0")


def random_dfa(rng: random.Random, max_states: int = 4,
               max_letters: int = 2) -> PartialDFA:
    """A partial DFA whose transitions may point anywhere, cycles included."""
    n = rng.randint(1, max_states)
    states = FiniteSet(tuple(f"q{i}" for i in range(n)))
    alphabet = FiniteSet(LETTERS[: rng.randint(1, max_letters)])
    delta = {(q, a): f"q{rng.randrange(n)}"
             for q in states for a in alphabet if rng.random() < 0.6}
    accepting = frozenset(q for q in states if rng.random() < 0.4)
    return PartialDFA(alphabet, states, accepting, delta, "q0")


def structure_map(c: PointedCoalgebra) -> FMap:
    """The structure of c as a map from its closed states."""
    closed = FiniteSet(x for x in c.carrier if x not in c.frontier)
    return FMap(closed, c.carrier, c.functor,
                {x: c.structure[x] for x in closed})


def random_bag_map(rng: random.Random) -> FMap:
    nx, ny = rng.randint(1, 6), rng.randint(1, 6)
    domain = FiniteSet(tuple(f"x{i}" for i in range(1, nx + 1)))
    names = tuple(f"y{j}" for j in range(1, ny + 1))
    values = {}
    for x in domain:
        picks = rng.sample(names, rng.randint(0, ny))
        values[x] = BagVal(tuple((y, rng.randint(1, 3)) for y in picks))
    return FMap(domain, FiniteSet(names), Bag(), values)


def random_fmap(rng: random.Random, depth: int = 2,
                pow_free: bool = True) -> FMap:
    functor = random_functor(rng, depth, pow_free)
    domain = FiniteSet(tuple(f"x{i}" for i in range(rng.randint(1, 5))))
    codomain = FiniteSet(tuple(f"y{j}" for j in range(rng.randint(1, 5))))
    values = {x: random_value(rng, functor, codomain) for x in domain}
    return FMap(domain, codomain, functor, values)


def shuffled(rng: random.Random, fs: FiniteSet) -> FiniteSet:
    xs = list(fs)
    rng.shuffle(xs)
    return FiniteSet(tuple(xs))


def random_renaming(rng: random.Random, fs: FiniteSet,
                    prefix: str = "m") -> TotalMap:
    names = [f"{prefix}{i}" for i in range(len(fs))]
    rng.shuffle(names)
    return TotalMap(fs, FiniteSet(tuple(names)), dict(zip(list(fs), names)))
