"""Seeded inputs and reference answers for the DUEL benchmark.

Everything the program under test receives comes from here: one mini-C
program per run (the target) and the query streams driven against it.
Every query carries the output lines DUEL must print for it, computed in
plain Python from the data this module seeded, never by DUEL itself.

Targets are generated as mini-C source, so the served workload can hand
the same file to ``python -m repro <file> --serve`` that the in-process
workloads run through :func:`repro.minic.runner.run_program`.
"""

from __future__ import annotations

import random
from typing import NamedTuple

#: Buckets of the compiler symbol table (the paper's ``hash[1024]``).
BUCKETS = 1024
#: Chain-fold threshold DUEL renders ``-->`` chains with.
FOLD = 4
#: Extra command-line words the target's ``main`` receives.
ARGV_WORDS = ("verbose", "file.c")


class Query(NamedTuple):
    text: str
    lines: tuple          # the reference output, line for line
    elements: int         # target elements the query examines
    write: bool           # side-effecting (snapshot, write lock)
    shape: str


class Target:
    """The seeded data of one target program and its mini-C source."""

    def __init__(self, seed: int, nx: int, path: str):
        rng = random.Random(f"target:{seed}:{nx}")
        self.path = path
        self.argv = [path, *ARGV_WORDS]
        self.x = [rng.randint(-1000, 1000) for _ in range(nx)]
        self.hash: dict[int, list[tuple[str, int]]] = {}
        for bucket in sorted(rng.sample(range(BUCKETS), 96)):
            scopes = sorted((rng.randint(0, 9) for _ in
                             range(rng.randint(1, 6))), reverse=True)
            self.hash[bucket] = [(f"s{bucket}_{i}", s)
                                 for i, s in enumerate(scopes)]
        self.head = [rng.randint(0, 999) for _ in range(20)]
        dups = rng.sample(range(1, 100), 12)
        first, second = sorted(rng.sample(range(12), 2))
        dups[second] = dups[first]
        self.dups = dups
        self.tree_keys = rng.sample(range(1000), 63)
        self.tree = _bst(self.tree_keys)

    def source(self) -> str:
        """The mini-C program whose ``main`` builds this target."""
        entries = [(bucket, name, scope)
                   for bucket, chain in self.hash.items()
                   for name, scope in chain]
        return _SOURCE.format(
            nx=len(self.x), x=_ints(self.x),
            ne=len(entries),
            hb=_ints(b for b, _, _ in entries),
            hn=", ".join(f'"{n}"' for _, n, _ in entries),
            hs=_ints(s for _, _, s in entries),
            nh=len(self.head), head=_ints(self.head),
            nl=len(self.dups), dups=_ints(self.dups),
            nt=len(self.tree_keys), keys=_ints(self.tree_keys))


_SOURCE = """\
struct symbol {{ char *name; int scope; struct symbol *next; }};
struct node {{ int value; struct node *next; }};
struct tree {{ int key; struct tree *left; struct tree *right; }};
struct symbol *hash[1024];
struct node *head;
struct node *L;
struct tree *root;
int x[{nx}] = {{{x}}};
int hb[{ne}] = {{{hb}}};
char *hn[{ne}] = {{{hn}}};
int hs[{ne}] = {{{hs}}};
int hv[{nh}] = {{{head}}};
int lv[{nl}] = {{{dups}}};
int tk[{nt}] = {{{keys}}};

struct node *cons(int value, struct node *next) {{
  struct node *n = malloc(sizeof(struct node));
  n->value = value; n->next = next;
  return n;
}}

struct tree *insert(struct tree *t, int key) {{
  if (t == 0) {{
    t = malloc(sizeof(struct tree));
    t->key = key; t->left = 0; t->right = 0;
  }} else if (key < t->key) t->left = insert(t->left, key);
  else t->right = insert(t->right, key);
  return t;
}}

int main(int argc, char **argv) {{
  int i;
  struct symbol *s;
  for (i = {ne} - 1; i >= 0; i--) {{
    s = malloc(sizeof(struct symbol));
    s->name = hn[i]; s->scope = hs[i]; s->next = hash[hb[i]];
    hash[hb[i]] = s;
  }}
  for (i = {nh} - 1; i >= 0; i--) head = cons(hv[i], head);
  for (i = {nl} - 1; i >= 0; i--) L = cons(lv[i], L);
  for (i = 0; i < {nt}; i++) root = insert(root, tk[i]);
  return 0;
}}
"""


def _ints(values) -> str:
    return ", ".join(str(v) for v in values)


def _bst(keys) -> dict:
    """key -> [left key, right key] of the BST built by inserting keys."""
    tree: dict[int, list] = {}
    root = None
    for key in keys:
        tree[key] = [None, None]
        if root is None:
            root = key
            continue
        at = root
        while True:
            side = 0 if key < at else 1
            if tree[at][side] is None:
                tree[at][side] = key
                break
            at = tree[at][side]
    tree[None] = root
    return tree


def _chain(base: str, count: int, fieldname: str) -> str:
    """How DUEL renders ``base`` followed by ``count`` ``->fieldname``."""
    if count == 0:
        return base
    if count >= FOLD:
        return f"{base}-->{fieldname}[[{count}]]"
    return base + "->" + "->".join([fieldname] * count)


# -- query shapes ------------------------------------------------------------
# Each takes (target, rng) and returns one Query with its reference.

def _at_quantile(values, rng, lo: float, hi: float) -> int:
    """A literal splitting ``values`` at a seeded quantile in [lo, hi]."""
    ordered = sorted(values)
    return ordered[int(rng.uniform(lo, hi) * len(ordered))]


def scan_nonzero(t: Target, rng, n: int) -> Query:
    return Query(f"x[..{n}] !=? 0",
                 tuple(f"x[{i}] = {v}" for i, v in enumerate(t.x[:n])
                       if v != 0), n, False, "scan_nonzero")


def scan_greater(t: Target, rng, n: int, lo: float, hi: float) -> Query:
    k = _at_quantile(t.x[:n], rng, lo, hi)
    return Query(f"x[..{n}] >? {k}",
                 tuple(f"x[{i}] = {v}" for i, v in enumerate(t.x[:n])
                       if v > k), n, False, f"scan_greater_{lo:g}")


def scan_less(t: Target, rng, n: int) -> Query:
    k = _at_quantile(t.x[:n], rng, 0.08, 0.12)
    return Query(f"x[..{n}] <? {k}",
                 tuple(f"x[{i}] = {v}" for i, v in enumerate(t.x[:n])
                       if v < k), n, False, "scan_less")


def count_less(t: Target, rng, n: int) -> Query:
    k = rng.randint(-1000, 1000)
    return Query(f"#/(x[..{n}] <? {k})",
                 (str(sum(1 for v in t.x[:n] if v < k)),), n, False,
                 "count_less")


def count_other(t: Target, rng, n: int) -> Query:
    k = rng.choice(t.x[:n])
    return Query(f"#/(x[..{n}] !=? {k})",
                 (str(sum(1 for v in t.x[:n] if v != k)),), n, False,
                 "count_other")


def hash_scan(t: Target, rng) -> Query:
    k = rng.randint(3, 6)
    lines = tuple(f"hash[{b}]->scope = {chain[0][1]}"
                  for b, chain in t.hash.items() if chain[0][1] > k)
    return Query(f"(hash[..{BUCKETS}] !=? 0)->scope >? {k}", lines,
                 BUCKETS + len(t.hash), False, "hash_scan")


def head_walk(t: Target, rng) -> Query:
    return Query("head-->next->value",
                 tuple(f"{_chain('head', i, 'next')}->value = {v}"
                       for i, v in enumerate(t.head)),
                 len(t.head), False, "head_walk")


def hash_chain(t: Target, rng) -> Query:
    bucket = rng.choice(list(t.hash))
    chain = t.hash[bucket]
    base = f"hash[{bucket}]"
    return Query(f"{base}-->next->scope",
                 tuple(f"{_chain(base, i, 'next')}->scope = {s}"
                       for i, (_, s) in enumerate(chain)),
                 len(chain), False, "hash_chain")


def tree_count(t: Target, rng) -> Query:
    n = len(t.tree_keys)
    return Query("#/(root-->(left,right))", (str(n),), n, False,
                 "tree_count")


def duplicates(t: Target, rng) -> Query:
    values = t.dups
    lines = tuple(f"{_chain('L', i, 'next')}->value = {v}"
                  for i, v in enumerate(values)
                  for later in values[i + 1:] if later == v)
    n = len(values)
    return Query("L-->next->(value ==? next-->next->value)", lines,
                 n + n * (n - 1) // 2, False, "duplicates")


def argv_range(t: Target, rng) -> Query:
    return Query("argv[0..2]",
                 tuple(f'argv[{i}] = "{word}"'
                       for i, word in enumerate(t.argv[:3])),
                 3, False, "argv_range")


def constants(t: Target, rng) -> Query:
    a = rng.randint(1, 5)
    c, d = rng.sample(range(1, 20), 2)
    values = [str(i + r) for i in range(a, a + 3) for r in (c, d)]
    return Query(f"({a}..{a + 2})+({c},{d})", (" ".join(values),), 0,
                 False, "constants")


def element(t: Target, rng) -> Query:
    k = rng.randrange(len(t.x))
    return Query(f"x[{k}]", (f"x[{k}] = {t.x[k]}",), 1, False, "element")


def tree_path(t: Target, rng) -> Query:
    key = t.tree[None]
    path = []
    for _ in range(rng.randint(1, 3)):
        sides = [s for s in (0, 1) if t.tree[key][s] is not None]
        if not sides:
            break
        side = rng.choice(sides)
        path.append(("left", "right")[side])
        key = t.tree[key][side]
    text = "->".join(["root", *path, "key"])
    return Query(text, (f"{text} = {key}",), len(path) + 1, False,
                 "tree_path")


# -- side-effecting shapes --------------------------------------------------
# Their references hold against the unmodified target: every workload
# rolls a write back before the next query (snapshot isolation when
# served, an explicit restore in process).

def bump(t: Target, rng) -> Query:
    k = rng.randrange(len(t.x))
    return Query(f"x[{k}]++", (f"x[{k}]++ = {t.x[k]}",), 1, True, "bump")


def assign_field(t: Target, rng) -> Query:
    v = rng.randint(0, 999)
    if rng.random() < 0.5:
        depth = rng.randrange(4)
        target = "->".join(["head", *["next"] * depth, "value"])
    else:
        target = f"hash[{rng.choice(list(t.hash))}]->scope"
    return Query(f"{target} = {v}", (f"{target}={v} = {v}",), 1, True,
                 "assign_field")


def declare(t: Target, rng) -> Query:
    v = rng.randint(0, 999)
    return Query(f"int tmp; tmp = {v}", (f"tmp={v} = {v}",), 1, True,
                 "declare")


READS = (head_walk, hash_chain, tree_count, duplicates, argv_range,
         constants, element, tree_path)
WRITES = (bump, assign_field, declare)


# -- workloads ---------------------------------------------------------------

class Workload:
    """One workload's target, warm-up mix and endless query streams."""

    #: Array size of the target.
    nx = 1000
    #: Independent query streams (client connections when served).
    streams = 1

    def __init__(self, seed: int, path: str):
        self.seed = seed
        self.target = Target(seed, self.nx, path)

    def cycle(self, rng) -> list:
        """One pass over the mix: fixed counts per shape, seeded order."""
        raise NotImplementedError

    def warmup(self) -> list:
        """The mix once: one query of every shape, from its own seeded
        stream (untimed, part of set-up)."""
        shapes = {}
        for query in self.cycle(random.Random(f"warmup:{self.seed}")):
            shapes.setdefault(query.shape, query)
        return list(shapes.values())

    def stream(self, index: int = 0):
        """Stream ``index`` of queries, endless and seeded."""
        rng = random.Random(f"stream:{self.seed}:{index}")
        while True:
            yield from self.cycle(rng)


class BulkScan(Workload):
    """Whole-array and whole-table filters (the paper's P1/P3 shapes).

    Each read is followed by one write, so in-process write latency is
    measured on the same 10,000-element target.  The weights keep the
    median and the tail inside the ``scan_nonzero``/``scan_greater_0.48``
    cluster, the most expensive shapes.
    """

    nx = 10_000

    def cycle(self, rng) -> list:
        t, n = self.target, self.nx
        reads = [scan_nonzero(t, rng, n) for _ in range(3)]
        reads += [scan_greater(t, rng, n, .48, .52) for _ in range(3)]
        reads += [scan_greater(t, rng, n, .88, .92), count_less(t, rng, n),
                  hash_scan(t, rng)]
        rng.shuffle(reads)
        out = []
        for read in reads:
            out.append(read)
            out.append(rng.choice((bump, assign_field))(t, rng))
        return out


class Interactive(Workload):
    """Short reads from the paper's worked sessions, some re-issued.

    A share of the reads repeat an earlier text of the same shape, as
    re-issued history would; one query in 33 is a write.  The weights
    put the median inside the ``argv_range``/``constants`` cluster.
    """

    #: Chance that a read re-issues an earlier text of its shape.
    REPEAT = 0.3
    #: Reads per cycle, cheapest shapes first.
    MIX = ((element, 4), (tree_path, 4), (argv_range, 6), (constants, 6),
           (hash_chain, 4), (head_walk, 4), (tree_count, 2),
           (duplicates, 2))

    def __init__(self, seed: int, path: str):
        super().__init__(seed, path)
        self.history: dict[str, list] = {}
        self.issued = 0
        self.repeated = 0

    def cycle(self, rng) -> list:
        out = []
        for shape, weight in self.MIX:
            for _ in range(weight):
                out.append(self.read(shape, rng))
        rng.shuffle(out)
        out.append(rng.choice(WRITES)(self.target, rng))
        return out

    def read(self, shape, rng) -> Query:
        seen = self.history.setdefault(shape.__name__, [])
        self.issued += 1
        if seen and rng.random() < self.REPEAT:
            self.repeated += 1
            return rng.choice(seen[-20:])
        query = shape(self.target, rng)
        seen.append(query)
        return query

    def repeat_share(self) -> float:
        return self.repeated / self.issued if self.issued else 0.0


class Served(Workload):
    """Two closed-loop clients, each repeating in a seeded order: the
    eight interactive reads, two more short reads, four scans of 1,000
    elements and one side-effecting query.

    One write in 15: a served write holds the exclusive lock for three
    full-memory snapshot copies, about 100x a short read; at one write
    in five, reads waited on a writer about half the time and their
    median flipped between the two modes from run to run.
    """

    streams = 2

    def cycle(self, rng) -> list:
        t, n = self.target, self.nx
        order = [shape(t, rng) for shape in READS]
        order += [rng.choice(READS[4:])(t, rng) for _ in range(2)]
        order += [scan_greater(t, rng, n, .88, .92), scan_less(t, rng, n),
                  count_other(t, rng, n), scan_greater(t, rng, n, .88, .92)]
        order.append(rng.choice(WRITES)(t, rng))
        rng.shuffle(order)
        return order


WORKLOADS = {"bulk_scan": BulkScan, "interactive": Interactive,
             "served": Served}
