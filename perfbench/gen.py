"""Seeded request streams in the `gp serve` wire format.

Every stream is a list of JSONL request lines drawn from one
`random.Random(seed)`, so a seed names its inputs exactly. Each request
kind owns a pool of payloads indexed by an integer key; a Zipf rank
distribution over the key space decides how often keys repeat, and so how
much work the server's content-keyed caches can skip. Every generated
request is well-formed and names only things the standard world declares:
on a correct server every response has status "ok".
"""

import bisect
import itertools
import json

STRUCTURES = ["dense", "diagonal", "banded", "triangular", "symmetric", "csr"]
MATVEC_NS = [24, 32, 48, 64, 96]
MATMUL_NS = [16, 24, 32, 40]
SOLVE_NS = [24, 32, 48, 64]
# A common period of every `k mod m` that picks a payload's shape below.
SHAPE_PERIOD = 180
# By default one check request in this many carries sandbox defs.
DEFS_EVERY = 6

CHECK_POOL = [
    ("IncidenceGraph", ["adjacency_list"], False),
    ("IncidenceGraph", ["adjacency_matrix"], False),
    ("GraphEdge", ["adjacency_list::edge"], False),
    ("VertexListGraph", ["adjacency_list"], False),
    ("AdjacencyMatrixGraph", ["adjacency_list"], False),  # a failing check
    ("RandomAccessIterator", ["vector<int>::iterator"], True),
    ("ForwardIterator", ["list<int>::iterator"], True),
    ("RandomAccessContainer", ["deque<int>"], True),
    ("Container", ["vector<int>"], False),
    ("VectorSpace", ["cvec", "complex"], False),
]

CLOSURE_POOL = [
    ("IncidenceGraph", ["adjacency_list"]),
    ("IncidenceGraph", ["adjacency_matrix"]),
    ("VertexListGraph", ["adjacency_list"]),
    ("AdjacencyMatrixGraph", ["adjacency_matrix"]),
    ("GraphEdge", ["adjacency_list::edge"]),
    ("RandomAccessIterator", ["vector<int>::iterator"]),
    ("BidirectionalIterator", ["list<int>::iterator"]),
    ("Container", ["vector<int>"]),
    ("Sequence", ["list<int>"]),
    ("VectorSpace", ["cvec", "complex"]),
]

PROVE_POOL = [
    ("swo", "int_lt"), ("swo", "string_lt"), ("swo", None),
    ("orders", "int_le"), ("orders", "string_le"), ("orders", "rational_le"),
    ("monoid", "int[*]"), ("monoid", "float[*]"), ("monoid", "bool[&&]"),
    ("monoid", "string[^]"), ("monoid", "matrix[.]"), ("monoid", None),
    ("group", "int[+]"), ("group", "float[*]"), ("group", "rational[*]"),
    ("group", "matrix[.]"), ("ring", "int"), ("ring", None),
]


def gpc_source(k):
    """A small .gpc world (one concept, type and op), distinct per key."""
    return (
        f"// bench defs {k}\n"
        f"concept B{k}<T> {{\n"
        f"  g{k} : T -> T;\n"
        f'  axiom involution(a): "g{k}(g{k}(a)) = a";\n'
        f"  complexity g{k} O(1);\n"
        f"}}\n"
        f"type b{k} {{ }}\n"
        f"op g{k} : b{k} -> b{k};\n"
    )


def lint_block(i, buggy):
    """One erase-in-loop block; the buggy form keeps the invalidated iterator."""
    v, it, last = f"v{i}", f"it{i}", f"last{i}"
    erase = (
        f"    {v}.erase({it});\n"
        if buggy
        else f"    {it} = {v}.erase({it});\n    {last} = {v}.end();\n"
    )
    return (
        f"vector<_> {v};\n"
        f"iter {it} = {v}.begin();\n"
        f"iter {last} = {v}.end();\n"
        f"while ({it} != {last}) {{\n"
        f"  if (p(*{it})) {{\n"
        f"{erase}"
        f"  }} else {{\n"
        f"    ++{it};\n"
        f"  }}\n"
        f"}}"
    )


def lint_source(k):
    blocks = 1 + k % 4
    buggy_every = 2 if k % 3 == 0 else 0
    body = "\n".join(
        lint_block(i, buggy_every > 0 and i % buggy_every == 0)
        for i in range(blocks)
    )
    return f"// bench lint key {k}\n{body}"


def optimize_expr(k):
    """An expression with redexes at depth k mod 3, over a carrier named by k."""
    base, one = [
        (f"x{k} * 1 + 0", "1"),
        (f"(f{k}:float) * 1.0", "1.0"),
        (f"x{k} - x{k}", "1"),
        (f"x{k} * 0 * 1", "1"),
    ][k % 4]
    for _ in range(k % 3):
        base = f"({base}) * {one}"
    return base


def request(kind, k, defs=False):
    """The request of `kind` with key `k`, as a dict in wire field order."""
    if kind == "check":
        if defs:
            # carries sandbox defs: the server loads them into a private
            # registry for this one request
            return {"kind": "check", "concept": f"B{k}", "types": [f"b{k}"],
                    "nominal": False, "defs": gpc_source(k)}
        concept, types, nominal = CHECK_POOL[k % len(CHECK_POOL)]
        return {"kind": "check", "concept": concept, "types": types,
                "nominal": nominal}
    if kind == "parse":
        return {"kind": "parse", "source": gpc_source(k)}
    if kind == "lint":
        return {"kind": "lint", "source": lint_source(k)}
    if kind == "optimize":
        return {"kind": "optimize", "expr": optimize_expr(k),
                "certified_only": k % 2 == 0}
    if kind == "prove":
        theory, instance = PROVE_POOL[k % len(PROVE_POOL)]
        r = {"kind": "prove", "theory": theory}
        if instance is not None:
            r["instance"] = instance
        return r
    if kind == "closure":
        concept, types = CLOSURE_POOL[k % len(CLOSURE_POOL)]
        return {"kind": "closure", "concept": concept, "types": types}
    if kind == "matvec":
        return {"kind": "matvec", "structure": STRUCTURES[k % 6],
                "n": MATVEC_NS[k % len(MATVEC_NS)], "seed": k}
    if kind == "matmul":
        return {"kind": "matmul", "structure": STRUCTURES[(k + 1) % 6],
                "n": MATMUL_NS[k % len(MATMUL_NS)], "seed": k}
    if kind == "solve":
        return {"kind": "solve", "structure": STRUCTURES[(k + 2) % 6],
                "n": SOLVE_NS[k % len(SOLVE_NS)], "seed": k}
    raise ValueError(f"unknown kind {kind}")


def zipf_cdf(s, keyspace):
    weights = (1.0 / (i + 1) ** s for i in range(keyspace))
    cdf = list(itertools.accumulate(weights))
    total = cdf[-1]
    return [c / total for c in cdf]


def stream(rng, mix, zipf, keyspace, n, defs_every=DEFS_EVERY):
    """n request lines: kinds in the proportions of `mix`, keys by Zipf rank.

    The expensive shapes dominate a stream's cost, so their counts do not
    depend on the seed: each kind gets its exact share of the n requests
    in a shuffled order, and every defs_every-th check carries defs. Each
    kind maps ranks to keys through its own random offset, so names differ
    from seed to seed; offsets are multiples of SHAPE_PERIOD, so a rank
    keeps its payload shape (pool entry, expression form, lint blocks,
    matrix structure and order) under every seed.
    """
    total = sum(w for _, w in mix)
    kinds = [kind for kind, w in mix for _ in range(n * w // total)]
    kinds += [mix[i % len(mix)][0] for i in range(n - len(kinds))]
    rng.shuffle(kinds)
    cdf = zipf_cdf(zipf, keyspace)
    offset = {kind: SHAPE_PERIOD * rng.randrange(1 << 12) for kind, _ in mix}
    lines = []
    checks = 0
    for kind in kinds:
        rank = min(bisect.bisect_left(cdf, rng.random()), keyspace - 1)
        defs = kind == "check" and checks % defs_every == defs_every - 1
        checks += kind == "check"
        req = request(kind, offset[kind] + rank, defs)
        lines.append(json.dumps(req, separators=(",", ":")))
    return lines
