"""Independent answers for the benchmark's checks.

A small stack-based evaluator over the text of an XML document: it knows
nothing of segments, labels, joins or the path summary. It reads the
document with one regular expression over its tags, builds the element
tree in document order, and evaluates the query subset the benchmark
sends (PATH, TWIG and XPATH share it):

    path      := axis? step (axis step)*
    axis      := '//' | '/'
    step      := ('*' | name) ('[' path ']')*

The first step of the outer path selects its name test anywhere in the
document. Inside a predicate an omitted leading axis means descendant,
as in the server's grammar (docs/SERVER.md, src/query/xpath.h).
"""

import bisect
import re

# Generated documents have no comments, CDATA, processing instructions or
# '>' inside attribute values, so one pattern finds every tag.
_TAG = re.compile(rb"<(/?)([A-Za-z_][\w.\-]*)[^>]*?(/?)>")


class Tree:
    """Elements of a document in preorder.

    `tag[i]`, `start[i]`, `end[i]` (one past the end tag's '>'),
    `parent[i]` (-1 at top level) and `last[i]` (index of the last
    element of i's subtree, so i's descendants are i+1..last[i]).
    """

    def __init__(self, doc: bytes):
        self.tag, self.start, self.end, self.parent, self.last = [], [], [], [], []
        stack = []
        for m in _TAG.finditer(doc):
            closing, name, empty = m.group(1), m.group(2), m.group(3)
            if closing:
                if not stack or self.tag[stack[-1]] != name.decode():
                    raise ValueError(f"unbalanced </{name.decode()}> at {m.start()}")
                i = stack.pop()
                self.end[i] = m.end()
                self.last[i] = len(self.tag) - 1
                continue
            i = len(self.tag)
            self.tag.append(name.decode())
            self.start.append(m.start())
            self.end.append(m.end())
            self.parent.append(stack[-1] if stack else -1)
            self.last.append(i)
            if not empty:
                stack.append(i)
        if stack:
            raise ValueError(f"unclosed <{self.tag[stack[-1]]}>")
        self.by_tag = {}
        for i, t in enumerate(self.tag):
            self.by_tag.setdefault(t, []).append(i)
        self.answers = {}  # expression -> evaluate() result, for callers
        self.children = [[] for _ in self.tag]
        for i, p in enumerate(self.parent):
            if p >= 0:
                self.children[p].append(i)

    def rows(self, indices):
        """(start, end) of each element, in document order."""
        return [(self.start[i], self.end[i]) for i in sorted(indices)]


def parse_query(expr: str):
    """Parses `expr` into a list of steps (descendant, name, predicates);
    name None is the wildcard."""
    steps, pos = _parse_path(expr, 0)
    if pos != len(expr):
        raise ValueError(f"trailing text in {expr!r} at {pos}")
    return steps


def _parse_path(s: str, i: int):
    steps = []
    while True:
        desc = True
        if s.startswith("//", i):
            i += 2
        elif s.startswith("/", i):
            desc, i = False, i + 1
        elif steps:
            return steps, i
        m = re.compile(r"\*|[A-Za-z_][\w.\-]*").match(s, i)
        if not m:
            raise ValueError(f"expected a name test in {s!r} at {i}")
        i = m.end()
        preds = []
        while s.startswith("[", i):
            pred, i = _parse_path(s, i + 1)
            if not s.startswith("]", i):
                raise ValueError(f"expected ']' in {s!r} at {i}")
            preds.append(pred)
            i += 1
        steps.append((desc, None if m.group() == "*" else m.group(), preds))
        if i == len(s) or s[i] == "]":
            return steps, i


def _step(tree: Tree, ctx, desc: bool, name):
    """Elements reached from the sorted context set by one axis step."""
    out = set()
    if desc:
        pool = tree.by_tag.get(name, ()) if name is not None else None
        covered = -1
        for c in ctx:
            if c <= covered:
                continue  # inside an earlier context: already collected
            covered = tree.last[c]
            if pool is None:
                out.update(range(c + 1, covered + 1))
            else:
                lo = bisect.bisect_right(pool, c)
                hi = bisect.bisect_right(pool, covered)
                out.update(pool[lo:hi])
    else:
        for c in ctx:
            for k in tree.children[c]:
                if name is None or tree.tag[k] == name:
                    out.add(k)
    return sorted(out)


def _filter(tree: Tree, elems, preds):
    for pred in preds:
        elems = [e for e in elems if _exists(tree, e, pred)]
    return elems


def _exists(tree: Tree, e: int, steps) -> bool:
    ctx = [e]
    for desc, name, preds in steps:
        ctx = _filter(tree, _step(tree, ctx, desc, name), preds)
        if not ctx:
            return False
    return True


def evaluate(tree: Tree, expr: str):
    """Indices of the elements `expr` selects, in document order."""
    steps = parse_query(expr)
    _, name, preds = steps[0]
    ctx = list(range(len(tree.tag))) if name is None else list(tree.by_tag.get(name, ()))
    ctx = _filter(tree, ctx, preds)
    for desc, name, preds in steps[1:]:
        ctx = _filter(tree, _step(tree, ctx, desc, name), preds)
    return ctx
